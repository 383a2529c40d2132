"""Command-line entry point."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .corpus import CorpusError
from .report import Config, ConfigError, run_pipeline

_CONFIG_KEYS = {
    "root": str,
    "threshold": float,
    "depth": int,
    "method": str,
    "out": str,
    "reference": str,
    "verbose": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
    "delay": float,
}


def _read_config_file(path: str) -> dict:
    """Parse the key=value configuration file (one assignment per line,
    ``#`` comments allowed)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value.strip().strip('"'))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navminer",
        description="Recover the navigational model of a multi-page web "
                    "application and mine candidate UI components.")
    parser.add_argument("--root", help="root page: mirror file/directory or http(s) URL")
    parser.add_argument("--threshold", type=float, help="similarity threshold in [0,1] (default 0.95)")
    parser.add_argument("--depth", type=int, help="maximum link depth (default 10)")
    parser.add_argument("--method", choices=("MMS", "STS"),
                        help="similarity substrate: page schemas (MMS) or syntax trees (STS)")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--reference", help="reference classification file to score against")
    parser.add_argument("--verbose", action="store_true", default=None,
                        help="chatty logging plus per-page schema dumps")
    parser.add_argument("--delay", type=float, help="delay between HTTP requests in seconds")
    parser.add_argument("--config", help="key=value configuration file (flags win)")
    return parser


def _build_config(args) -> Config:
    values = _read_config_file(args.config) if args.config else {}
    overrides = {
        "root": args.root,
        "threshold": args.threshold,
        "depth": args.depth,
        "method": args.method,
        "out": args.out,
        "reference": args.reference,
        "verbose": args.verbose,
        "delay": args.delay,
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    if "root" not in values:
        raise ConfigError("no root given (use --root or a config file)")
    cfg = Config(
        root=values["root"],
        threshold=values.get("threshold", 0.95),
        max_depth=values.get("depth", 10),
        method=values.get("method", "MMS"),
        out_dir=values.get("out", "out"),
        reference=values.get("reference"),
        verbose=bool(values.get("verbose", False)),
        http_delay=values.get("delay", 0.1),
    )
    cfg.validate()
    return cfg


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
