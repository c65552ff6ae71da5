"""The public API against what documents and instruments it: the README's
library table and config schema, and the benchmark tracer's wrap targets."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import ltpkit
from ltpkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a backticked call form such as `weakest_mode(eigenvalues)`
CALL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(([A-Za-z0-9_, ]*)\)")


def overview_cells():
    """{module name: backticked entries of its row} from the README's
    "Library overview" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) < 4 or not cells[1].strip().startswith("`ltpkit."):
            continue
        rows[cells[1].strip().strip("`")] = re.findall(r"`([^`]+)`", cells[2])
    return rows


def library_overview():
    """{module name: identifiers of its row}; a call form contributes its
    function name."""
    return {module: [n if IDENTIFIER.fullmatch(n) else CALL.fullmatch(n)[1]
                     for n in entries if IDENTIFIER.fullmatch(n) or CALL.fullmatch(n)]
            for module, entries in overview_cells().items()}


def readme_config() -> dict:
    """The example of the README's "JSON configuration" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### JSON configuration", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


# keys whose value holds case parameters or a grid, not config keys
FREE_FORM = {"set", "frequencies_hz", "values"}


def key_paths(config: dict, prefix=()) -> set:
    paths = set()
    for key, value in config.items():
        path = prefix + (key,)
        paths.add(path)
        if isinstance(value, dict) and key not in FREE_FORM:
            paths |= key_paths(value, path)
    return paths


def members(cls):
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls))
    return names


class TestReadme:
    def test_table_names_resolve(self):
        rows = library_overview()
        assert len(rows) == 9
        for module_name, names in rows.items():
            module = importlib.import_module(module_name)
            # a name is either in the module or a member of one of its classes
            known = set(vars(module))
            for name in names:
                obj = getattr(module, name, None)
                if inspect.isclass(obj):
                    known |= members(obj)
            unknown = [n for n in names if n not in known]
            assert not unknown, f"{module_name}: {unknown}"

    def test_call_forms_match_signatures(self):
        calls = [(module_name, *call.groups())
                 for module_name, entries in overview_cells().items()
                 for call in map(CALL.fullmatch, entries) if call]
        assert calls
        for module_name, name, params in calls:
            func = getattr(importlib.import_module(module_name), name)
            documented = [p.strip() for p in params.split(",") if p.strip()]
            assert list(inspect.signature(func).parameters) == documented, name

    def test_package_api_line(self):
        # the README's one line on what `import ltpkit` exposes is __all__
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        line = next(line for line in text.splitlines()
                    if line.startswith("`import ltpkit` exposes"))
        names = re.findall(r"`([^`]+)`", line.split(":", 1)[1])
        assert len(names) == len(set(names)) == 28
        assert set(names) == set(ltpkit.__all__)
        assert all(hasattr(ltpkit, name) for name in names)

    def test_every_export_documented(self):
        documented = {n for names in library_overview().values() for n in names}
        missing = sorted(set(ltpkit.__all__) - documented)
        assert not missing

    def test_config_block_has_the_dumped_keys(self, capsys):
        assert main(["solve", "--case", "case1", "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert key_paths(readme_config()) == key_paths(dumped)

    def test_quick_start_eig_line(self, tmp_path, capsys):
        # the quick start's `eig` command prints what its `# ->` comment
        # says; a token written with `...` is a prefix of the printed one
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("ltpkit eig "))
        argv = lines[k].split()[1:]
        assert argv[-2:] == ["--out", "out"]
        assert lines[k + 1].startswith("# -> ")
        expected = lines[k + 1].split()[2:]
        assert main([*argv[:-1], str(tmp_path)]) == 0
        printed = capsys.readouterr().out.split()
        assert len(printed) == len(expected)
        for want, got in zip(expected, printed):
            if want.endswith("..."):
                assert got.startswith(want[:-3]), (want, got)
            else:
                assert got == want


def tracer_targets():
    """``TARGETS`` of bench/tracing.py: (module, attribute, span) triples."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_tracer_targets_resolve():
    # bench/tracing.py wraps these names where they are bound; a name that no
    # longer resolves fails the traced benchmark's "wrappers installed" check
    targets = tracer_targets()
    assert targets
    missing = []
    for module_name, attr, _span in targets + (("ltpkit.cli", "case_builder", ""),):
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing


def test_unused_imports_are_tracer_targets():
    # a name imported but uncalled (marked noqa: F401) is kept only for
    # bench/tracing.py to wrap; once the tracer stops wrapping it there, the
    # import is stale and must go
    targets = {(module_name, attr) for module_name, attr, _span in tracer_targets()}
    stale = []
    for path in sorted((ROOT / "src" / "ltpkit").glob("*.py")):
        module_name = f"ltpkit.{path.stem}"
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if "noqa: F401" in lines[alias.lineno - 1] \
                        and (module_name, name) not in targets:
                    stale.append(f"{module_name}.{name}")
    assert not stale
