"""Pipeline orchestration, DOT/XML emission, CLI behaviour."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from urllib.parse import quote

import pytest

from navminer import corpus as corpus_mod
from navminer import load_corpus
from navminer import navmodel as navmodel_mod
from navminer import schema as schema_mod
from navminer.cli import main
from navminer.components import KINDS, CandidateComponent
from navminer.evaluate import EvaluationResult, evaluate, load_reference
from navminer.navmodel import NavNode, NavTree, collect_partition
from navminer.report import (Config, ConfigError, PipelineResult, analyse, emit, emit_dot,
                             emit_xml, run_pipeline)

from conftest import DEMO_THRESHOLD, REPO_ROOT, random_mirror, write_mirror


def analysed(root, threshold=0.9, method="MMS", depth=10):
    """The reduced tree and the components of the mirror at ``root``."""
    corpus = load_corpus(root, max_depth=depth, delay=0.0)
    return analyse(corpus, threshold, method)


def _page(title, *targets):
    anchors = "".join(f'<a href="{t}">{t}</a>' for t in targets)
    return (f"<html><head><title>{title}</title></head><body>"
            f"<h1>{title}</h1>{anchors}</body></html>")


def test_dot_single_node(tmp_path):
    root = write_mirror(tmp_path, {"index.html": "<html><body>x</body></html>"})
    dot = emit_dot(analysed(root)[0])
    assert dot.count("[label=") == 1
    assert "->" not in dot


def test_dot_chain_has_two_solid_edges(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": _page("one", "b.html"),
        "b.html": _page("two", "c.html"),
        "c.html": _page("three"),
    })
    dot = emit_dot(analysed(root, threshold=1.0)[0])
    solid = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
    assert len(solid) == 2
    assert not [l for l in dot.splitlines() if "dashed" in l]


def test_dot_backref_is_one_dashed_edge(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": _page("one", "a.html"),
        "a.html": _page("two", "index.html"),
    })
    dot = emit_dot(analysed(root)[0])
    dashed = [l for l in dot.splitlines() if "dashed" in l]
    assert len(dashed) == 1
    solid = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
    assert len(solid) == 1


def test_xml_empty_components_element_present(tmp_path):
    root = write_mirror(tmp_path, {"index.html": "<html><body>x</body></html>"})
    xml = emit_xml(*analysed(root))
    parsed = ET.fromstring(xml)
    components = parsed.find("components")
    assert components is not None and len(components) == 0


def test_xml_inventory_counts(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": _page("one", "b.html"),
        "b.html": ("<html><head><title>two</title></head><body><h1>two</h1>"
                   "<select><option>x</option></select></body></html>"),
    })
    xml = emit_xml(*analysed(root))
    component = ET.fromstring(xml).find("components/component")
    inventory = component.find("inventory")
    assert inventory.get("select") == "1"
    assert component.get("file") == "components/edge-000.html"


def test_xml_reparses_for_demo(demo_root, demo_reference, tmp_path):
    cfg = Config(root=str(demo_root), threshold=DEMO_THRESHOLD,
                 out_dir=str(tmp_path / "out"), reference=str(demo_reference))
    result = run_pipeline(cfg)
    parsed = ET.parse(result.out_dir / "navmodel.xml").getroot()
    assert parsed.tag == "navmodel"
    evaluation = parsed.find("evaluation")
    assert evaluation.get("precision") == "100"
    assert evaluation.get("recall") == "100"
    # node/edge counts in DOT match the tree
    dot = (result.out_dir / "navmodel.dot").read_text()
    nodes = len(result.tree.nodes())
    assert dot.count("[label=") == nodes
    solid = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
    assert len(solid) == nodes - 1


def test_pipeline_single_page_mirror(tmp_path):
    root = write_mirror(tmp_path / "mirror",
                        {"index.html": "<html><body>solo</body></html>"})
    cfg = Config(root=str(root), out_dir=str(tmp_path / "out"))
    result = run_pipeline(cfg)
    assert (result.out_dir / "navmodel.dot").exists()
    assert (result.out_dir / "navmodel.xml").exists()
    assert (result.out_dir / "dangling.txt").read_text() == ""
    assert result.components == []
    assert result.evaluation is None


def test_a_page_the_crawl_loads_is_in_the_model(tmp_path):
    """At depth 3 the crawl loads all six pages, ``f.html`` at link depth 3.
    The depth-first build meets ``e.html`` below ``a.html`` and ``c.html``,
    at tree depth 3, and still expands it: the crawl's limit is the only
    one, so ``f.html`` is in the model."""
    root = write_mirror(tmp_path / "mirror", {
        "index.html": _page("home", "a.html", "b.html"),
        "a.html": _page("a", "c.html"),
        "b.html": '<html><body><form><select><option>x</option></select></form>'
                  '<a href="e.html">e</a></body></html>',
        "c.html": _page("c", "e.html"),
        "e.html": _page("e", "f.html"),
        "f.html": _page("f"),
    })
    result = run_pipeline(Config(root=str(root), max_depth=3, out_dir=str(tmp_path / "out")))
    assert len(result.corpus.pages) == 6
    xml = (result.out_dir / "navmodel.xml").read_text(encoding="utf-8")
    assert "f.html" in xml


def test_pipeline_writes_component_and_report_files(demo_root, tmp_path):
    cfg = Config(root=str(demo_root), threshold=DEMO_THRESHOLD,
                 out_dir=str(tmp_path / "out"))
    result = run_pipeline(cfg)
    edge_files = sorted((result.out_dir / "components").glob("edge-*.html"))
    assert len(edge_files) == len(result.components) == 5
    index = (result.out_dir / "report" / "index.html").read_text()
    for edge_file in edge_files:
        assert edge_file.name in index
    assert (result.out_dir / "dangling.txt").read_text() == "faq-archive.html\n"


def test_pipeline_verbose_dumps_schemas(demo_root, tmp_path):
    cfg = Config(root=str(demo_root), out_dir=str(tmp_path / "out"), verbose=True)
    result = run_pipeline(cfg)
    dumps = list((result.out_dir / "schemas").glob("*.dtd"))
    assert len(dumps) == len(result.corpus.pages)


@pytest.mark.parametrize("method", ["MMS", "STS"])
def test_verbose_run_extracts_each_schema_once(method, demo_root, tmp_path, monkeypatch):
    """The DTD dump reads the MMS tokens an MMS run has cached already,
    each distinct page shape is extracted once (12 for the 29 demo
    pages), and every page's dump is the DTD of its own extracted
    schema."""
    calls = []
    extract = schema_mod.extract_schema
    monkeypatch.setattr(schema_mod, "extract_schema",
                        lambda doc, *rest: calls.append(doc) or extract(doc, *rest))
    cfg = Config(root=str(demo_root), threshold=DEMO_THRESHOLD, method=method,
                 out_dir=str(tmp_path / "out"), verbose=True)
    result = run_pipeline(cfg)
    pages = result.corpus.pages
    shapes = {page.document.shape for page in pages.values()}
    assert len(pages) == 29 and len(shapes) == 12
    assert len(calls) == len(shapes)
    assert {doc.shape for doc in calls} == shapes
    for page_id in pages:
        dump = result.out_dir / "schemas" / f"{quote(page_id, safe='')}.dtd"
        assert dump.read_text() == schema_mod.dtd_text(
            schema_mod.serialize_schema(extract(pages[page_id].document)))


def test_invalid_threshold_rejected(tmp_path):
    cfg = Config(root="wherever", threshold=1.5, out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_pipeline(cfg)


def test_invalid_method_and_depth_rejected(tmp_path):
    with pytest.raises(ConfigError):
        Config(root="x", method="QQQ").validate()
    with pytest.raises(ConfigError):
        Config(root="x", max_depth=-1).validate()


def test_cli_exit_codes(tmp_path, demo_root, capsys):
    out = tmp_path / "out"
    assert main(["--root", str(demo_root), "--threshold", "1.5",
                 "--out", str(out)]) == 1
    assert main(["--root", str(tmp_path / "nope.html"), "--out", str(out)]) == 2
    assert main([]) == 1  # no root given
    assert main(["--root", str(demo_root), "--out", str(out),
                 "--threshold", "0.95"]) == 0
    stdout = capsys.readouterr().out
    assert "components: 5" in stdout


def test_cli_config_file_with_flag_override(tmp_path, demo_root, demo_reference, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        f'root = {demo_root}\n'
        "threshold = 0.5   # overridden by the flag\n"
        "method = MMS\n"
        f"reference = {demo_reference}\n"
        f"out = {tmp_path / 'out'}\n",
        encoding="utf-8")
    assert main(["--config", str(config), "--threshold", "0.95"]) == 0
    stdout = capsys.readouterr().out
    assert "precision=100% recall=100%" in stdout


def test_cli_rejects_bad_config_file(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("not a key value line\n", encoding="utf-8")
    assert main(["--config", str(config)]) == 1


def test_cli_unreadable_config_file_is_a_configuration_error(tmp_path, capsys):
    missing = tmp_path / "missing.conf"
    assert main(["--config", str(missing)]) == 1
    undecodable = tmp_path / "latin1.conf"
    undecodable.write_bytes("root = caf\xe9.html\n".encode("latin-1"))
    assert main(["--config", str(undecodable)]) == 1
    assert main(["--config", str(tmp_path)]) == 1  # a directory
    stderr = capsys.readouterr().err
    assert stderr.count("configuration error:") == 3
    assert "internal error" not in stderr


def test_cli_internal_error_exit_code(tmp_path, demo_root, monkeypatch):
    import navminer.cli as cli

    def boom(cfg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "run_pipeline", boom)
    assert main(["--root", str(demo_root), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("delay", ["inf", "nan", "-1"])
def test_delay_must_be_finite_and_non_negative(delay, tmp_path, demo_root):
    with pytest.raises(ConfigError):
        Config(root="x", http_delay=float(delay)).validate()
    out = tmp_path / "out"
    assert main(["--root", str(demo_root), "--out", str(out), "--delay", delay]) == 1
    assert not out.exists()


def _cli_stderr(config_text: str, tmp_path) -> str:
    """Run the CLI in a fresh interpreter, so that its logging setup is
    not the test runner's, and return what it wrote to stderr."""
    config = tmp_path / "run.conf"
    config.write_text(config_text, encoding="utf-8")
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run([sys.executable, "-m", "navminer.cli", "--config", str(config)],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))))
    assert run.returncode == 0, run.stderr
    return run.stderr


def test_config_file_verbose_turns_on_debug_logging(tmp_path):
    root = write_mirror(tmp_path / "site", {
        "index.html": '<html><body><a href="http://elsewhere.example/">out</a></body></html>',
    })
    config = f"root = {root}\nout = {tmp_path / 'out'}\n"
    unresolvable = "DEBUG navminer.corpus: unresolvable reference"
    assert unresolvable in _cli_stderr(config + "verbose = true\n", tmp_path)
    assert unresolvable not in _cli_stderr(config + "verbose = false\n", tmp_path)


@pytest.mark.parametrize("method", ["MMS", "STS"])
def test_each_page_is_parsed_and_link_scanned_once(method, demo_root, tmp_path, monkeypatch):
    """One parse and one link scan per fetched page, at load, in a whole
    run: later stages, the component diff of the representatives
    included, read the loaded records."""
    calls = {"to_xhtml": [], "extract_links": []}
    for name, log in calls.items():
        original = getattr(corpus_mod, name)

        def counting(*args, _original=original, _log=log):
            _log.append(args)
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "navminer" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    cfg = Config(root=str(demo_root), threshold=DEMO_THRESHOLD, method=method,
                 out_dir=str(tmp_path / "out"))
    result = run_pipeline(cfg)
    corpus = result.corpus
    assert len(calls["to_xhtml"]) == len(corpus.pages) + len(corpus.excluded)
    assert sorted(args[1] for args in calls["extract_links"]) == sorted(corpus.pages)
    # the memo holds token keys only, one per method and page shape
    tokens = {(method, page.document.shape) for page in corpus.pages.values()}
    assert corpus.memo and set(corpus.memo) <= tokens


def _emit_xml_etree(tree, components, evaluation=None):
    """The ElementTree serializer ``emit_xml`` replaced, kept as its oracle."""
    root = ET.Element("navmodel")

    def add_node(node, parent):
        elem = ET.SubElement(parent, "node", {
            "representative": node.representative or "",
            "members": " ".join(sorted(node.members)),
        })
        for child in node.children:
            add_node(child, elem)
        for target in node.backrefs:
            ET.SubElement(elem, "backref", {"target": target})

    add_node(tree.root, root)
    comps = ET.SubElement(root, "components")
    for index, component in enumerate(components):
        elem = ET.SubElement(comps, "component", {
            "source": component.source,
            "target": component.target,
            "file": f"components/edge-{index:03d}.html",
            "fragments": str(len(component.fragments)),
        })
        ET.SubElement(elem, "inventory",
                      {kind.lower(): str(component.inventory.get(kind, 0)) for kind in KINDS})
    if evaluation is not None:
        ET.SubElement(root, "evaluation", {
            "rcr": str(evaluation.rcr),
            "icr": str(evaluation.icr),
            "precision": str(evaluation.precision),
            "recall": str(evaluation.recall),
        })
    ET.indent(root, space="  ")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode") + "\n"


_ODD = ("&", "<", ">", '"', "'", "\n", "\r", "\t", "\x00", "\x1f", "\xe9", "a", "b.html", " ")


def _odd_id(rng):
    return "".join(rng.choice(_ODD) for _ in range(rng.randint(0, 6)))


def _random_nav_tree(rng):
    root = NavNode((_odd_id(rng),))
    nodes = [root]
    for _ in range(rng.randint(0, 12)):
        parent = rng.choice(nodes)
        child = NavNode(tuple(_odd_id(rng) for _ in range(rng.randint(1, 3))))
        parent.children.append(child)
        nodes.append(child)
    for node in nodes:
        node.backrefs = tuple(_odd_id(rng) for _ in range(rng.randint(0, 2)))
        node.representative = rng.choice(node.members + (None,))
    return NavTree(root, None, "MMS", 0.9)


def test_emit_xml_matches_elementtree_random():
    rng = random.Random(301)
    for _ in range(400):
        tree = _random_nav_tree(rng)
        components = [
            CandidateComponent(_odd_id(rng), _odd_id(rng), [None] * rng.randint(0, 3),
                               {kind: rng.randint(0, 2) for kind in rng.sample(KINDS, 3)})
            for _ in range(rng.randint(0, 3))]
        evaluation = (EvaluationResult(*(rng.randint(0, 100) for _ in range(4)))
                      if rng.random() < 0.5 else None)
        assert emit_xml(tree, components, evaluation) == \
            _emit_xml_etree(tree, components, evaluation)


def test_emit_xml_matches_elementtree_on_demo(demo_root, demo_reference, tmp_path):
    cfg = Config(root=str(demo_root), threshold=DEMO_THRESHOLD,
                 out_dir=str(tmp_path / "out"), reference=str(demo_reference))
    result = run_pipeline(cfg)
    expected = _emit_xml_etree(result.tree, result.components, result.evaluation)
    assert (result.out_dir / "navmodel.xml").read_text(encoding="utf-8") == expected


def test_long_link_chain_runs(tmp_path, capsys):
    pages = 2_000
    mirror = {}
    for index in range(pages):
        name = "index.html" if index == 0 else f"p{index}.html"
        link = f'<a href="p{index + 1}.html">next</a>' if index + 1 < pages else ""
        mirror[name] = f"<html><body><h1>p{index}</h1>{link}</body></html>"
    root = write_mirror(tmp_path / "mirror", mirror)
    out = tmp_path / "out"
    assert main(["--root", str(root), "--out", str(out), "--depth", str(pages + 500)]) == 0
    assert f"pages: {pages}  nodes: {pages}  components: {pages - 1}" in capsys.readouterr().out
    parsed = ET.parse(out / "navmodel.xml").getroot()
    assert sum(1 for _ in parsed.iter("node")) == pages


def test_cli_bad_reference_is_a_configuration_error_before_the_crawl(tmp_path, demo_root, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "missing.txt"
    # the reference is read first, so a missing root is not even looked at
    assert main(["--root", str(tmp_path / "nope.html"), "--reference", str(missing),
                 "--out", str(out)]) == 1
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("no class separator here\n", encoding="utf-8")
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes("Home: caf\xe9.html\n".encode("latin-1"))
    for reference in (malformed, undecodable, tmp_path):  # tmp_path: a directory
        assert main(["--root", str(demo_root), "--reference", str(reference),
                     "--out", str(out)]) == 1
    assert not out.exists()
    stderr = capsys.readouterr().err
    assert stderr.count("configuration error: reference") == 4
    assert "internal error" not in stderr


def test_cli_unwritable_out_is_a_configuration_error(tmp_path, demo_root, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory", encoding="utf-8")
    assert main(["--root", str(demo_root), "--out", str(blocker / "sub")]) == 1
    # a file where the report directory goes: what was written is rolled back
    out = tmp_path / "out"
    out.mkdir()
    (out / "report").write_text("in the way", encoding="utf-8")
    assert main(["--root", str(demo_root), "--out", str(out)]) == 1
    assert sorted(path.name for path in out.rglob("*")) == ["report"]
    stderr = capsys.readouterr().err
    assert f"configuration error: cannot write output directory {blocker / 'sub'}" in stderr
    assert f"configuration error: cannot write output directory {out}" in stderr
    assert "internal error" not in stderr


def _files(out):
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_a_failed_write_keeps_the_previous_output(tmp_path, demo_root, monkeypatch):
    out = tmp_path / "out"
    assert main(["--root", str(demo_root), "--out", str(out), "--verbose"]) == 0
    before = _files(out)
    assert any(name.startswith("schemas/") for name in before)
    # a second run that fails on its sixth file
    written = []
    write_text = Path.write_text

    def failing_write(path, *args, **kwargs):
        if len(written) == 5:
            raise OSError(28, "No space left on device")
        written.append(path)
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write)
    assert main(["--root", str(demo_root), "--out", str(out), "--threshold", "0.5"]) == 1
    assert len(written) == 5
    assert _files(out) == before
    assert not list(out.glob(".navminer-*"))
    # a directory where a file goes: refused before anything moves
    monkeypatch.setattr(Path, "write_text", write_text)
    (out / "navmodel.dot").unlink()
    (out / "navmodel.dot").mkdir()
    assert main(["--root", str(demo_root), "--out", str(out), "--threshold", "0.5"]) == 1
    del before["navmodel.dot"]
    assert _files(out) == before
    assert not list(out.glob(".navminer-*"))


def test_a_later_run_removes_stale_edge_files_and_schemas(tmp_path, demo_root):
    out = tmp_path / "out"
    first = run_pipeline(Config(root=str(demo_root), out_dir=str(out), verbose=True))
    assert len(first.components) > 1 and (out / "schemas").is_dir()
    (out / "notes.txt").write_text("not an artifact", encoding="utf-8")
    root = write_mirror(tmp_path / "site", {"index.html": _page("home", "a.html"),
                                            "a.html": _page("a")})
    second = run_pipeline(Config(root=str(root), out_dir=str(out)))
    assert len(second.components) == 1
    assert sorted(_files(out)) == sorted(
        [path.relative_to(out).as_posix() for path in second.files] + ["notes.txt"])
    assert not (out / "schemas").exists()
    assert [path.name for path in (out / "components").iterdir()] == ["edge-000.html"]


def test_verbose_dtd_names_are_one_per_page(tmp_path):
    root = write_mirror(tmp_path / "site", {
        "index.html": _page("home", "a/b.html", "a_b.html"),
        "a/b.html": _page("nested"),
        "a_b.html": '<html><body><form action="x"><input name="q"></form></body></html>',
    })
    result = run_pipeline(Config(root=str(root), out_dir=str(tmp_path / "out"), verbose=True))
    names = sorted(path.name for path in (result.out_dir / "schemas").iterdir())
    assert names == ["a%2Fb.html.dtd", "a_b.html.dtd", "index.html.dtd"]
    for page_id, page in result.corpus.pages.items():
        dump = result.out_dir / "schemas" / f"{quote(page_id, safe='')}.dtd"
        expected = schema_mod.dtd_text(schema_mod.serialize_schema(
            schema_mod.extract_schema(page.document)))
        assert dump.read_text(encoding="utf-8") == expected


def test_verbose_dtd_names_of_long_page_ids_fit_the_file_system(tmp_path):
    """An 80-directory chain quotes to a 330-byte name; a name over 200
    bytes keeps its first 150 and ends in ``~`` and the page id's hash."""
    deep = "d/" * 80
    root = write_mirror(tmp_path / "site", {
        "index.html": _page("home", deep + "p.html", deep + "q.html"),
        deep + "p.html": _page("p"),
        deep + "q.html": _page("q"),
    })
    out = tmp_path / "out"
    assert main(["--root", str(root), "--out", str(out), "--verbose"]) == 0
    names = sorted(path.name for path in (out / "schemas").iterdir())
    assert len(names) == 3
    assert all(len(name.encode()) <= 255 for name in names)
    assert "index.html.dtd" in names
    for page_id in (deep + "p.html", deep + "q.html"):
        quoted = quote(page_id, safe="")
        assert len(quoted) > 200
        digest = hashlib.sha256(page_id.encode()).hexdigest()
        assert f"{quoted[:150]}~{digest}.dtd" in names


def test_flags_config_keys_and_settings_table_agree(tmp_path):
    import navminer.cli as cli

    parser = cli._parser()
    settings = cli._SETTINGS
    actions = {action.dest: action for action in parser._actions}
    assert set(actions) - {"help", "config"} == set(settings)
    assert sorted(field for field, _, _ in settings.values()) == \
        sorted(f.name for f in dataclasses.fields(Config))
    assert actions["method"].choices == navmodel_mod.METHODS
    assert actions["verbose"].const is True and actions["verbose"].default is None

    # every help default is the Config default
    defaults = {f.name: f.default for f in dataclasses.fields(Config)}
    for key, (field, _, _) in settings.items():
        shown = actions[key].help.rpartition("(default: ")[2].rstrip(")")
        if "(default: " in actions[key].help:
            assert shown == str(defaults[field])
        else:
            assert defaults[field] in (dataclasses.MISSING, None, False)
    assert cli._build_config(parser.parse_args(["--root", "r.html"])) == Config(root="r.html")

    # each key sets its field, from a config file and as a flag alike
    given = {"root": "r.html", "threshold": "0.5", "depth": "3", "method": "STS", "out": "o",
             "reference": "ref.txt", "verbose": "true", "delay": "0"}
    assert set(given) == set(settings)
    config = tmp_path / "run.conf"
    config.write_text("".join(f"{key} = {value}\n" for key, value in given.items()),
                      encoding="utf-8")
    flags = [arg for key, value in given.items()
             for arg in ((f"--{key}",) if key == "verbose" else (f"--{key}", value))]
    expected = Config("r.html", 0.5, 3, "STS", "o", "ref.txt", True, 0.0)
    assert cli._build_config(parser.parse_args(["--config", str(config)])) == expected
    assert cli._build_config(parser.parse_args(flags)) == expected


def test_cli_validates_the_configuration_once(tmp_path, demo_root, monkeypatch):
    calls = []
    validate = Config.validate
    monkeypatch.setattr(Config, "validate", lambda cfg: calls.append(cfg) or validate(cfg))
    assert main(["--root", str(demo_root), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


GOLDEN_ARTIFACTS = Path(__file__).parent / "data" / "demo_artifacts.sha256"


def _demo_artifact_digests(demo_root, demo_reference, out: Path) -> list[str]:
    """``sha256  method/relative/path`` for every file a verbose demo run
    writes, under MMS and under STS."""
    lines = []
    for method in ("MMS", "STS"):
        run_pipeline(Config(root=str(demo_root), threshold=DEMO_THRESHOLD, method=method,
                            out_dir=str(out / method), reference=str(demo_reference),
                            verbose=True))
        for path in sorted(p for p in (out / method).rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(out).as_posix()}")
    return lines


def test_demo_artifact_bytes_match_the_golden_digests(demo_root, demo_reference, tmp_path):
    """The artifact bytes of a demo run are pinned.  A change that means to
    alter them replaces the file's lines with the new ones printed here."""
    got = _demo_artifact_digests(demo_root, demo_reference, tmp_path)
    expected = GOLDEN_ARTIFACTS.read_text(encoding="utf-8").splitlines()
    assert got == expected, (f"artifacts differ from {GOLDEN_ARTIFACTS.name}; "
                             "the new digests:\n" + "\n".join(got))


GOLDEN_RUNS = Path(__file__).parent / "data" / "run_artifacts.sha256"


def _run_digest(cfg: Config) -> str:
    """One SHA-256 over every file a run writes, in the order of their
    relative paths, each path and length before its bytes."""
    run_pipeline(cfg)
    out = Path(cfg.out_dir)
    digest = hashlib.sha256()
    for path in sorted((p for p in out.rglob("*") if p.is_file()),
                       key=lambda p: p.relative_to(out).as_posix()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def test_benchmark_and_random_mirror_artifact_bytes_match_the_golden_digests(
        benchmark_mirrors, tmp_path):
    """Verbose runs of the benchmark's catalog (MMS at 0.95, STS at 0.8)
    and long table pages (MMS at 0.95), each with its reference, and of
    eight random mirrors (MMS at 0.95, STS at 0.8), deep, long and empty
    pages among them: one digest per run over all its files.  A change
    that means to alter the bytes replaces the file's lines with the new
    ones printed here."""
    catalog, longpage = benchmark_mirrors
    runs = [("catalog", catalog, "MMS", 0.95), ("catalog", catalog, "STS", 0.8),
            ("longpage", longpage, "MMS", 0.95)]
    rng = random.Random(2502)
    kinds = set()
    for index in range(8):
        directory = random_mirror(tmp_path / f"mirror{index}", rng, rng.randint(6, 30),
                                  (1, 6)).parent
        kinds |= {name for name in ("deep.html", "long.html", "files/empty.html")
                  if (directory / name).is_file()}
        runs += [(f"random{index}", directory, "MMS", 0.95),
                 (f"random{index}", directory, "STS", 0.8)]
    assert kinds == {"deep.html", "long.html", "files/empty.html"}
    got = []
    for name, directory, method, threshold in runs:
        reference = directory.parent / "reference.txt"
        cfg = Config(root=str(directory / "index.html"), threshold=threshold, method=method,
                     out_dir=str(tmp_path / "out" / f"{name}-{method}"), verbose=True,
                     reference=str(reference) if name in ("catalog", "longpage") else None)
        got.append(f"{_run_digest(cfg)}  {name} {method} {threshold}")
    expected = GOLDEN_RUNS.read_text(encoding="utf-8").splitlines()
    assert got == expected, (f"artifacts differ from {GOLDEN_RUNS.name}; "
                             "the new digests:\n" + "\n".join(got))


def test_analyses_of_one_load_write_the_bytes_of_separate_runs(demo_root, demo_reference,
                                                               tmp_path):
    """Stages as values: the demo mirror (with its reference) and three
    random mirrors are each loaded once, then analysed and emitted at two
    thresholds under both methods, verbose, the methods taking turns.
    Each output directory holds the bytes of a separate run with that
    configuration, so the load's shared ``Corpus.memo`` carries nothing
    from one analysis into the next."""
    rng = random.Random(3301)
    roots = [demo_root] + [random_mirror(tmp_path / f"mirror{index}", rng,
                                         rng.randint(6, 30), (1, 6)) for index in range(3)]
    for index, root in enumerate(roots):
        reference = str(demo_reference) if root == demo_root else None
        corpus = load_corpus(root, max_depth=Config.max_depth, delay=0.0)
        for threshold in (0.95, 0.8):
            for method in ("STS", "MMS"):
                name = f"{index}-{method}-{threshold}"
                cfg = Config(root=str(root), threshold=threshold, method=method,
                             reference=reference, verbose=True,
                             out_dir=str(tmp_path / "run" / name))
                run = run_pipeline(cfg)
                tree, components = analyse(corpus, threshold, method)
                evaluation = None
                if reference is not None:
                    evaluation = evaluate(collect_partition(tree), load_reference(reference))
                staged = PipelineResult(corpus, tree, components, evaluation,
                                        tmp_path / "staged" / name)
                emit(cfg, staged)
                assert _files(staged.out_dir) == _files(run.out_dir), name
                assert [p.relative_to(staged.out_dir) for p in staged.files] == \
                    [p.relative_to(run.out_dir) for p in run.files]


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_demo_artifact_bytes_do_not_depend_on_the_hash_seed(seed, demo_root, demo_reference,
                                                            tmp_path):
    """A fresh interpreter with its own string-hash seed writes the pinned
    bytes too, so no artifact follows the iteration order of a set or
    dict of strings.  One test process has a single seed."""
    code = ("import sys\nfrom pathlib import Path\n"
            "from test_report import _demo_artifact_digests\n"
            "print('\\n'.join(_demo_artifact_digests(*map(Path, sys.argv[1:]))))")
    paths = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run([sys.executable, "-c", code, str(demo_root), str(demo_reference),
                          str(tmp_path)], capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONHASHSEED=seed,
                                  PYTHONPATH=os.pathsep.join(filter(None, paths))))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == GOLDEN_ARTIFACTS.read_text(encoding="utf-8").splitlines()


def test_config_file_with_a_byte_order_mark_loads(tmp_path, demo_root, capsys):
    config = tmp_path / "run.conf"
    config.write_text(f"\ufeffroot = {demo_root}\nout = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["--config", str(config)]) == 0
    assert "components: 5" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["ture", "", "2", "enabled"])
def test_config_file_verbose_typo_is_a_configuration_error(value, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(f"root = index.html\nverbose = {value}\n", encoding="utf-8")
    assert main(["--config", str(config)]) == 1
    assert f"{config}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("value,verbose", [
    ("1", True), ("TRUE", True), ("yes", True), ("On", True),
    ("0", False), ("false", False), ("NO", False), ("off", False)])
def test_config_file_verbose_words(value, verbose, tmp_path):
    from navminer.cli import _read_config_file

    config = tmp_path / "run.conf"
    config.write_text(f'verbose = "{value}"\n', encoding="utf-8")
    assert _read_config_file(str(config)) == {"verbose": verbose}


def test_a_hash_inside_a_config_value_is_part_of_the_value(tmp_path, capsys):
    root = write_mirror(tmp_path / "site#1", {
        "index.html": _page("Home", "a#b.html"),
        "a#b.html": _page("Page", "index.html"),
    })
    out = tmp_path / "out#2"
    config = tmp_path / "run.conf"
    config.write_text(f"# a whole-line comment\nroot = {root.parent / 'a#b.html'}\n"
                      f"out = {out}  # a trailing comment\n", encoding="utf-8")
    assert main(["--config", str(config)]) == 0
    assert "pages: 2" in capsys.readouterr().out
    assert (out / "navmodel.xml").is_file()


@pytest.mark.parametrize("line,value", [
    ("root = site/a#b.html", "site/a#b.html"),
    ("root = site/a#b.html # the start page", "site/a#b.html"),
    ("root = site/a#b.html\t# after a tab", "site/a#b.html"),
    ('root = "site/a#b.html" # quoted', "site/a#b.html"),
    ("root = #b.html", ""),
    ("root=a#", "a#"),
])
def test_a_config_comment_starts_a_line_or_follows_whitespace(line, value, tmp_path):
    from navminer.cli import _read_config_file

    config = tmp_path / "run.conf"
    config.write_text(f"# settings\n  # indented comment\n{line}\n", encoding="utf-8")
    assert _read_config_file(str(config)) == {"root": value}
