"""The simulator is the one owner of the event heap.

Same-instant event order depends on the tie rule that
:class:`~repro.engine.simulator.Simulator` runs at every push
(``schedule``, ``schedule_at``, ``arm``, ``reserve``, ``defer``).  A
module that pushed onto the heap itself, or read the simulator's
private state, would have to copy that rule by hand, so outside
``repro.engine`` no module imports :mod:`heapq` or touches a
``sim._...`` attribute.  The run-ahead rule has one home as well: an
event fires without a heap entry only through ``arm`` and the drain's
settle step, so no second run-ahead path may come back.  Scenarios
have one path too: outside ``repro.engine`` only the cluster
experiment and the golden workloads build from components or run the
sharded engine; every other scenario builds a ``World`` itself.
"""

import ast
from pathlib import Path

import repro
import repro.engine

SRC = Path(repro.__file__).parent
DOCS = SRC.parents[1] / "docs"
SIM_NAMES = {"sim", "simulator"}


def _base_name(node: ast.AST):
    """The last name of the object an attribute is read from:
    ``sim`` for ``sim._heap`` and for ``self.sim._heap``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _violations(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "heapq" for alias in node.names):
                yield node.lineno, "imports heapq"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "heapq":
                yield node.lineno, "imports from heapq"
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("_") \
                    and not node.attr.startswith("__") \
                    and _base_name(node.value) in SIM_NAMES:
                yield node.lineno, f"reads sim.{node.attr}"


def test_no_module_outside_the_engine_touches_the_heap():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "engine":
            continue
        for lineno, what in _violations(path):
            found.append(f"{path.relative_to(SRC)}:{lineno}: {what}")
    assert not found, "\n".join(found)


def test_the_check_sees_a_hand_copied_push(tmp_path):
    """The scan catches the shapes it exists for."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from heapq import heappush\n"
        "class Cpu:\n"
        "    def __init__(self, sim):\n"
        "        self._heap = sim._heap\n"
        "        self.sim._retie(1.0)\n")
    assert [what for _, what in _violations(bad)] == [
        "imports from heapq", "reads sim._heap", "reads sim._retie"]


def test_no_second_run_ahead_path():
    """``advance_to``, a caller moving the clock to its own next step
    beside ``arm``'s settle, is named nowhere in the code or the
    docs."""
    files = sorted(SRC.rglob("*.py")) + sorted(DOCS.rglob("*.md"))
    assert DOCS.is_dir() and len(files) > 1
    found = [f"{path.relative_to(SRC.parents[1])}:{lineno}"
             for path in files
             for lineno, line in enumerate(
                 path.read_text().splitlines(), 1)
             if "advance_to" in line]
    assert not found, "\n".join(found)


SHARDING_MODULES = {"repro.engine.component", "repro.engine.sharded"}
#: What ``repro.engine`` re-exports from those two modules.
SHARDING_NAMES = {name for name in repro.engine.__all__
                  if getattr(getattr(repro.engine, name), "__module__",
                             None) in SHARDING_MODULES}
#: The modules that may still build from components: the cluster
#: experiment (the benchmark runs it at two shards) and the golden
#: workloads.
COMPONENT_USERS = {"experiments/cluster.py", "trace/golden.py"}


def _sharding_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in SHARDING_MODULES:
                    yield node.lineno, f"imports {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if node.module in SHARDING_MODULES:
                yield node.lineno, f"imports from {node.module}"
            elif node.module == "repro.engine":
                for alias in node.names:
                    if alias.name in SHARDING_NAMES \
                            or alias.name in ("component", "sharded"):
                        yield (node.lineno,
                               f"imports {alias.name} from repro.engine")


def test_components_build_only_cluster_and_golden_scenarios():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "engine" \
                or relative.as_posix() in COMPONENT_USERS:
            continue
        for lineno, what in _sharding_imports(path):
            found.append(f"{relative}:{lineno}: {what}")
    assert not found, "\n".join(found)


def test_the_component_check_sees_every_import_shape(tmp_path):
    """The scan catches the shapes it exists for."""
    assert {"ShardedEngine", "HostComponent"} <= SHARDING_NAMES
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import repro.engine.sharded\n"
        "from repro.engine.component import HostComponent\n"
        "from repro.engine import ShardedEngine, World\n"
        "from repro.engine import component\n")
    assert [what for _, what in _sharding_imports(bad)] == [
        "imports repro.engine.sharded",
        "imports from repro.engine.component",
        "imports ShardedEngine from repro.engine",
        "imports component from repro.engine"]
