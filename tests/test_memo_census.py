"""The memo census: every ``lru_cache`` function of the package, each kept
for the caller named here.  A memo added or deleted edits this table, so
the change is seen; each memo's docstring gives the hits and misses of its
caller on a real command line."""

import importlib
import pkgutil

import liehofer

MEMOS = {
    "root_system.build_root_system": "from_label, in every command",
    "root_system._root_poincare": "stratum_poincare, per stratum of omega-series",
    "root_system._orbit_coords": "no command: perfbench/worker.py reads its cache_info()",
    "hofer._invariants": "the Hofer norms and length, and the norm sweep",
    "hofer._norm": "positive_norm and hofer_length_circle, for the orbit-norms benchmark",
    "circle_index._report": "index_equality_report, in index and the index sweep",
}


def _memos():
    """(module.name, function) of every memo defined in the package."""
    for info in pkgutil.iter_modules(liehofer.__path__):
        module = importlib.import_module(f"liehofer.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                yield f"{info.name}.{name}", value


def test_every_memo_is_on_the_census():
    assert {name for name, _ in _memos()} == set(MEMOS)


def test_every_memo_gives_its_hits_and_misses():
    for name, memo in _memos():
        doc = " ".join(memo.__doc__.split())
        assert "hit" in doc and "miss" in doc, name
