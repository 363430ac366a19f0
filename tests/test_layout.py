"""Package layout: modules share no private names, and each job has one home."""

import ast
import importlib
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "frameforge"


def private_relative_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} imports {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in private_relative_imports(path)] == []


def test_checker_sees_function_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    from .framebounds import _analysis_blocks\n")
    assert private_relative_imports(probe) == ["probe.py:2 imports _analysis_blocks"]


def function_local_relative_imports(path):
    """Relative imports inside a function: the package's own modules are
    imported once, at module level; lazy third-party imports stay allowed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if node is not fn}
    return [f"{path.name}:{node.lineno} imports {'.' * node.level}{node.module or ''}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 and id(node) in inside]


def test_no_function_local_relative_imports():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in function_local_relative_imports(path)] == []


def test_function_local_import_checker(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .gridfn import cell_volumes\n\n"
                     "def f():\n    from scipy.ndimage import map_coordinates\n"
                     "    import math\n    from . import zak\n\n"
                     "    def g():\n        from .serialization import format_csv\n\n"
                     "class C:\n    def m(self):\n        from ..x import y\n")
    assert function_local_relative_imports(probe) == [
        "probe.py:6 imports .", "probe.py:9 imports .serialization",
        "probe.py:13 imports ..x"]


BANNED = {"numpy": {"meshgrid", "allclose"}, "itertools": {"product"}}
ALIASES = {"np": "numpy", "numpy": "numpy", "itertools": "itertools"}


def banned_calls(path):
    """np.meshgrid outside geometry.cartesian, and any itertools.product or
    np.allclose: point grids come from cartesian, point matching from Box."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    if path.name == "geometry.py":
        allowed = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "cartesian"
                   for node in ast.walk(fn)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = {node.attr} & BANNED.get(ALIASES.get(node.value.id), set())
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names} & BANNED.get(node.module, set())
        else:
            continue
        if id(node) not in allowed:
            hits += [f"{path.name}:{node.lineno} uses {name}" for name in sorted(names)]
    return hits


def test_grids_and_point_matching_have_one_home():
    paths = sorted(SRC.glob("*.py"))
    assert [hit for path in paths for hit in banned_calls(path)] == []


def test_banned_call_checker(tmp_path):
    geometry = tmp_path / "geometry.py"
    geometry.write_text("def cartesian(axes):\n    return np.meshgrid(*axes)\n\n"
                        "def other(axes):\n    return np.meshgrid(*axes)\n")
    assert banned_calls(geometry) == ["geometry.py:5 uses meshgrid"]
    probe = tmp_path / "probe.py"
    probe.write_text("import itertools\nfrom numpy import allclose\n"
                     "x = itertools.product([1], [2])\ny = x.product\n")
    assert sorted(banned_calls(probe)) == ["probe.py:2 uses allclose",
                                           "probe.py:3 uses product"]


def unused_imports(path):
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports {name}"
            for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert [hit for path in paths for hit in unused_imports(path)] == []


def test_unused_import_checker(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\n"
                     "import numpy as np\nfrom .x import a, b as c\n\n"
                     "def f():\n    import math\n    return np.pi + a\n")
    assert unused_imports(probe) == ["probe.py:2 imports os", "probe.py:4 imports c",
                                     "probe.py:7 imports math"]


def foreign_private_calls(path):
    """Calls of an `_`-prefixed attribute on anything but self or cls whose
    name the module does not define itself: another module's private
    helpers stay behind its public names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    defined |= {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    defined |= {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    return [f"{path.name}:{node.lineno} calls {node.func.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("_") and not node.func.attr.startswith("__")
            and not (isinstance(node.func.value, ast.Name)
                     and node.func.value.id in ("self", "cls"))
            and node.func.attr not in defined]


def test_no_module_calls_another_modules_private_attributes():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in foreign_private_calls(path)] == []


def test_private_call_checker(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import geometry\n\n"
                     "def _own(x):\n    return x\n\n"
                     "class C:\n    def m(self, omega):\n"
                     "        self._helper()\n        omega._own()\n"
                     "        omega._corner_arrays()\n        geometry._overlaps(omega, [])\n"
                     "        return object.__setattr__(self, 'a', 1)\n")
    assert foreign_private_calls(probe) == ["probe.py:10 calls _corner_arrays",
                                            "probe.py:11 calls _overlaps"]


def unresolved_bindings(targets):
    """(module, attribute) pairs the tracer could not rebind: a missing
    module attribute, or a "Class.method" the class does not define itself."""
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if name not in vars(owner or object):
            missing.append(f"{module}.{attr}")
    return missing


def test_benchmark_bindings_resolve():
    # the benchmark's tracer rebinds these names by string, so a rename in
    # the package would break the benchmark without failing a package test
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t[:2] for t in tracer.SPANNED + tracer.COUNTED + tracer._criteria()]
    assert len(targets) >= 39
    assert unresolved_bindings(targets) == []


def test_binding_checker():
    assert unresolved_bindings([
        ("frameforge.construction", "cosine_measure_certificate"),
        ("frameforge.pointsets", "StructuredPointSet.count_in_box"),
        ("frameforge.pointsets", "FiniteSet.count_in_box"),
        ("frameforge.construction", "cosine_certificate"),
        ("frameforge.geometry", "NoSuchClass.contains"),
    ]) == ["frameforge.pointsets.FiniteSet.count_in_box",
           "frameforge.construction.cosine_certificate",
           "frameforge.geometry.NoSuchClass.contains"]


def test_criteria_keep_their_numbered_names_in_order():
    # the tracer names its acceptance.cNN spans after these function names,
    # so a renamed or reordered criterion would zero a per-layer metric
    acceptance = importlib.import_module("frameforge.acceptance")
    prefixes = [fn.__name__[:len("criterion_00_")] for fn in acceptance.ALL_CRITERIA]
    assert prefixes == [f"criterion_{n:02d}_" for n in range(1, 13)]
    assert [r.number for r in acceptance.run_all(7)] == list(range(1, 13))


def package_chains(path, alias="ff"):
    """Every outermost attribute chain on the name ``alias`` that a file
    reads, such as "zak.NOT_FRAME" for ``ff.zak.NOT_FRAME``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            names = []
            while isinstance(node, ast.Attribute):
                names.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == alias:
                chains.add(".".join(names))
    return sorted(chains)


def unresolved_chains(package, chains):
    missing = []
    for chain in chains:
        owner = package
        for name in chain.split("."):
            owner = getattr(owner, name, missing)
        if owner is missing:
            missing.append(chain)
    return missing


def test_benchmark_package_attributes_resolve():
    # the benchmark's workloads read names such as ff.zak.NECESSARY_ONLY, so
    # deleting or renaming one in the package must fail a package test first
    chains = package_chains(ROOT / "perfbench" / "workloads.py")
    assert "zak.NECESSARY_ONLY" in chains and len(chains) >= 15
    assert unresolved_chains(importlib.import_module("frameforge"), chains) == []


def test_package_chain_checker(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import frameforge as ff\nx = ff.zak.NOT_FRAME\n"
                     "y = ff.Window.from_string('x').label\nz = ff.zak.NO_SUCH\n"
                     "w = ff.no_such.thing\nv = other.ff.Window\n")
    chains = package_chains(probe)
    assert chains == ["Window.from_string", "no_such.thing", "zak.NOT_FRAME", "zak.NO_SUCH"]
    assert unresolved_chains(importlib.import_module("frameforge"), chains) == [
        "no_such.thing", "zak.NO_SUCH"]


def json_reads(path):
    """Calls of json.load or json.loads: every JSON input is read by
    serialization.read_json."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} calls json.{node.func.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            and node.func.attr in ("load", "loads")]


def handler_exits(path):
    """``cmd_*`` handlers that emit their report or return an exit status
    themselves: they return report lines, and ``main`` alone writes them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        if isinstance(fn.returns, ast.Name) and fn.returns.id == "int":
            hits.append(f"{path.name}:{fn.lineno} {fn.name} is annotated to return int")
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_emit"):
                hits.append(f"{path.name}:{node.lineno} {fn.name} calls _emit")
            elif (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, int)):
                hits.append(f"{path.name}:{node.lineno} {fn.name} returns an int")
    return sorted(hits)


def test_one_way_in_and_one_way_out():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "serialization.py"]
    assert len(paths) > 10
    assert [hit for path in paths for hit in json_reads(path)] == []
    assert json_reads(SRC / "serialization.py") != []
    assert handler_exits(SRC / "cli.py") == []


def test_one_way_checkers(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\n\ndef cmd_a(args) -> int:\n    _emit([], args)\n"
                     "    return 0\n\ndef cmd_b(args):\n    return json.loads(args.x)\n\n"
                     "def main():\n    _emit(json.dumps({}), None)\n    return 2\n")
    assert json_reads(probe) == ["probe.py:8 calls json.loads"]
    assert handler_exits(probe) == ["probe.py:3 cmd_a is annotated to return int",
                                    "probe.py:4 cmd_a calls _emit",
                                    "probe.py:5 cmd_a returns an int"]


DECODER = re.compile(r"^(\w*_from_dict|load_\w+|lattice_from_rows)$")


def number_conversions(path):
    """Definitions of as_vec, as_points or as_whole outside geometry.py, and
    calls of float or int inside the serialization decoders: every outside
    number is converted once, through geometry.as_vec or, for a count,
    geometry.as_whole."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"{path.name}:{fn.lineno} defines {fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name in ("as_vec", "as_points", "as_whole") and path.name != "geometry.py"]
    if path.name == "serialization.py":
        hits += [f"{path.name}:{node.lineno} {fn.name} calls {node.func.id}"
                 for fn in tree.body if isinstance(fn, ast.FunctionDef) and DECODER.match(fn.name)
                 for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id in ("float", "int")]
    return sorted(hits)


def test_outside_numbers_have_one_conversion():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in number_conversions(path)] == []
    geometry = importlib.import_module("frameforge.geometry")
    assert callable(geometry.as_vec) and callable(geometry.as_points)
    assert callable(geometry.as_whole)


def test_number_conversion_checker(tmp_path):
    (tmp_path / "geometry.py").write_text("def as_vec(x):\n    return float(x)\n")
    assert number_conversions(tmp_path / "geometry.py") == []
    (tmp_path / "pointsets.py").write_text("def as_points(p, d):\n    return p\n")
    assert number_conversions(tmp_path / "pointsets.py") == [
        "pointsets.py:1 defines as_points"]
    serialization = tmp_path / "serialization.py"
    serialization.write_text(
        "def domain_from_dict(d):\n    return [float(v) for v in d]\n\n"
        "def load_domain(t):\n    def as_vec(x):\n        return x\n    return float(t)\n\n"
        "def lattice_from_rows(r):\n    return int(r)\n\n"
        "def box_label(b):\n    return repr(float(b))\n")
    assert number_conversions(serialization) == [
        "serialization.py:10 lattice_from_rows calls int",
        "serialization.py:2 domain_from_dict calls float",
        "serialization.py:5 defines as_vec", "serialization.py:7 load_domain calls float"]
