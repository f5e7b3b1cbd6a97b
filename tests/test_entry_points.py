"""No dead entry points: every public function and method in dhtsim has
a caller in the program.

The program is src/dhtsim plus the benchmark's non-test files under
perfbench/.  Tests do not count: a name only a test calls belongs in
tests/oracles.py.  Names are matched from the syntax trees.  A
module-level function counts as called only where the program names it
bare, imports it, or reads it as <module>.<name>, so an attribute of
another object sharing its name does not keep it alive.  Methods are
matched bare, so a dead method sharing its name with a live one slips
through, but a live one is never flagged.  Strings are not references:
a traced row naming a function does not call it.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dhtsim")
PERFBENCH = os.path.join(ROOT, "perfbench")

# Public names with no caller yet, each waiting on a ROADMAP item.
UNCALLED = {
    # classify_failure(net, out, sub), for item 6's failure-reason
    # breakdown and item 10's lookup records
    "halonet.classify_failure",
    # item 3's use-based colluder in the live overlay
    "adversary.use_based_targets",
    # item 6's per-run success rate for Halo lookups
    "halonet.LookupOutcome.correct",
    # item 8's warmup schedules and the probes of items 2 and 9;
    # KadNetwork.random_key is reached only through it
    "kadnet.warmup",
}


def trees(directory):
    """Module name and syntax tree of each non-test file in directory."""
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py") or name.startswith("test_"):
            continue
        with open(os.path.join(directory, name)) as f:
            yield name[:-3], ast.parse(f.read(), name)


def public_definitions():
    """Dotted module.name or module.Class.name of every public function
    and method defined in src/dhtsim."""
    found = set()
    for module, tree in trees(SRC):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                found.add("%s.%s" % (module, node.name))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            not item.name.startswith("_"):
                        found.add("%s.%s.%s" % (module, node.name,
                                                item.name))
    return found


def references():
    """Every bare name the program reads, calls or imports, and every
    attribute it reads as (the name it is read from, or None, attr)."""
    names, attributes = set(), set()
    for directory in (SRC, PERFBENCH):
        for _, tree in trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    base = getattr(node.value, "id",
                                   getattr(node.value, "attr", None))
                    attributes.add((base, node.attr))
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names, attributes


def test_every_public_function_has_a_caller():
    names, attributes = references()
    read = {attr for _, attr in attributes}

    def called(definition):
        module, *owner, name = definition.split(".")
        if owner:
            return name in names or name in read
        return name in names or (module, name) in attributes

    uncalled = {d for d in public_definitions() if not called(d)}
    assert uncalled - UNCALLED == set(), "no caller in src/ or perfbench/"
    # an entry that gains a caller or goes away leaves the list
    assert UNCALLED - uncalled == set(), "stale UNCALLED entries"
