"""Command-line entry point."""

from __future__ import annotations

import argparse
import logging
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from . import navmodel
from .corpus import CorpusError
from .report import Config, ConfigError, run_pipeline


def _truthy(value: str) -> bool:
    word = value.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"{value!r} is neither 1/true/yes/on nor 0/false/no/off")
    return word in ("1", "true", "yes", "on")


# every setting once: config-file key (and flag --key) -> (Config field,
# value parser, help text); the default is the Config field's own
_SETTINGS = {
    "root": ("root", str, "root page: mirror file/directory or http(s) URL"),
    "threshold": ("threshold", float, "similarity threshold in [0,1]"),
    "depth": ("max_depth", int, "maximum link depth"),
    "method": ("method", str,
               "similarity substrate: page schemas (MMS) or syntax trees (STS)"),
    "out": ("out_dir", str, "output directory"),
    "reference": ("reference", str, "reference classification file to score against"),
    "verbose": ("verbose", _truthy, "chatty logging plus per-page schema dumps"),
    "delay": ("http_delay", float, "delay between HTTP requests in seconds"),
}


# a comment starts with "#" at the start of a line or after whitespace, so
# a "#" inside a value (a file name, say) is part of the value
_COMMENT = re.compile(r"(?:^|\s)#")


def _read_config_file(path: str) -> dict:
    """Parse the key=value configuration file (one assignment per line,
    ``#`` comments allowed, a UTF-8 byte order mark dropped) into
    ``Config`` field values."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = _COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        field_name, parse, _ = _SETTINGS[key]
        try:
            values[field_name] = parse(value.strip().strip('"'))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navminer",
        description="Recover the navigational model of a multi-page web "
                    "application and mine candidate UI components.")
    defaults = {f.name: f.default for f in fields(Config)}
    for key, (field_name, parse, help_text) in _SETTINGS.items():
        if parse is _truthy:  # a flag; None leaves a config file's value standing
            parser.add_argument(f"--{key}", action="store_true", default=None, help=help_text)
            continue
        default = defaults[field_name]
        if default is not MISSING and default is not None:
            help_text += f" (default: {default})"
        parser.add_argument(f"--{key}", type=parse, help=help_text,
                            choices=navmodel.METHODS if key == "method" else None)
    parser.add_argument("--config", help="key=value configuration file (flags win)")
    return parser


def _build_config(args) -> Config:
    values = _read_config_file(args.config) if args.config else {}
    for key, (field_name, _, _) in _SETTINGS.items():
        if (value := getattr(args, key)) is not None:
            values[field_name] = value
    if "root" not in values:
        raise ConfigError("no root given (use --root or a config file)")
    return Config(**values)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        # the built configuration decides, so a config file's verbose counts too
        logging.basicConfig(
            level=logging.DEBUG if cfg.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        result = run_pipeline(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        logging.getLogger(__name__).exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 3

    nodes = len(result.tree.nodes())
    print(f"pages: {len(result.corpus.pages)}  nodes: {nodes}  "
          f"components: {len(result.components)}")
    if result.evaluation is not None:
        ev = result.evaluation
        print(f"evaluation: rcr={ev.rcr} icr={ev.icr} "
              f"precision={ev.precision}% recall={ev.recall}%")
    print(f"artifacts written to {result.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
