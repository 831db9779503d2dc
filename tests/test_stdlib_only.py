"""df0l is pure stdlib: importing the library and its CLI loads no
third-party module, and none of the heavy standard modules that only
code generation needs.  The result records are named tuples and keep a
pinned contract.

The import runs in a fresh interpreter started with -S, so that no site
hook (a .pth file of some installed package) loads modules of its own and
hides, or fakes, a dependency.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

import df0l

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src")
TRACING = os.path.join(HERE, os.pardir, "bench", "tracing.py")

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import df0l, df0l.cli
print("\\n".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_imports_only_the_standard_library():
    result = subprocess.run([sys.executable, "-S", "-c", PROBE, os.path.abspath(SRC)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "df0l" in loaded
    assert loaded - sys.stdlib_module_names - {"df0l", "__main__"} == set()


ADDED_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import df0l.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""

# what dataclasses would pull in; each CLI run is its own process, so each
# pays for the import
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cli_import_loads_no_code_generation_modules():
    result = subprocess.run([sys.executable, "-S", "-c", ADDED_PROBE, os.path.abspath(SRC)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "df0l.cli" in added
    assert added & HEAVY == set()


RECORDS = {
    "ThresholdReport": ("mode", "status", "threshold", "witness", "last_level",
                        "survivors", "repetition"),
    "BoundsCheck": ("weak_ok", "weak_slack", "strong_ok", "strong_slack"),
    "CollisionPair": ("u", "v"),
    "TwinedData": ("phi", "psi", "alpha", "beta"),
    "Interpretation": ("s", "w", "t"),
    "PairSplit": ("left", "right"),
    "WordSyncReport": ("synchronized", "split_at", "vacuous"),
    "RepetitivenessVerdict": ("repetitive", "letter", "power", "witness", "exponent",
                              "period_bound", "power_bound"),
    "ValidationReport": ("is_pdf0l", "erasing_letters", "min_image_len",
                         "max_image_len", "letter_count", "axiom_count"),
    "GrowthReport": ("bounded", "unbounded", "invariant_exponent",
                     "minimal_invariant_subalphabets"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    """Each record is an immutable named tuple with its pinned fields in
    order; it hashes and compares by its fields, as the tuple of them."""
    cls = getattr(df0l, name)
    fields = RECORDS[name]
    assert cls.__name__ == name
    assert cls._fields == fields
    values = tuple((i, "x") for i in range(len(fields)))
    record = cls(*values)
    assert record == cls(*values) == values
    assert hash(record) == hash(cls(*values))
    assert tuple(record) == values
    for index, field in enumerate(fields):
        assert getattr(record, field) == values[index]
        changed = values[:index] + ((index, "y"),) + values[index + 1:]
        assert record != cls(*changed)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record._asdict() == dict(zip(fields, values))
    copy = record._replace(**{fields[-1]: None})
    assert type(copy) is cls and copy == values[:-1] + (None,)
    assert repr(record) == name + "(" + ", ".join(
        f"{field}={value!r}" for field, value in zip(fields, values)) + ")"


def test_threshold_report_defaults_and_found():
    report = df0l.ThresholdReport("weak", "found")
    assert report == ("weak", "found") + (None,) * 5
    assert report.found
    assert not df0l.ThresholdReport("strong", "cutoff_exceeded", last_level=4).found
    assert df0l.ThresholdReport("strong", "not_strongly_circular").found is False


PUBLIC = (
    "Alphabet", "BoundsCheck", "CollisionPair", "DF0LSystem",
    "ErasingMorphismError", "FactorSet", "GrowthReport", "Interpretation",
    "InvalidSystemError", "LetterMap", "Morphism", "NotInLanguageError",
    "PairSplit", "ParseError", "PreconditionError", "RepetitivenessVerdict",
    "ThresholdReport", "TwinedData", "ValidationReport", "Word",
    "WordSyncReport", "check_threshold_bounds", "classify_letters",
    "clear_interpretation_cache", "clear_language_cache",
    "collision_family_check", "collisions_upto", "compatible_split",
    "contains", "default_period_bound", "delta_estimate",
    "detect_unbounded_repetitive", "factor_language", "find_twined_failure",
    "format_word", "interpretation_length_bounds", "is_admissible",
    "is_strongly_synchronizing", "is_weakly_synchronized",
    "is_weakly_synchronizing", "minimal_interpretations", "parse_letter_map",
    "parse_system", "parse_word", "power_system", "render_system",
    "simplification_language_check", "strong_sync_letter", "strong_threshold",
    "twined_commutation_check", "validate", "weak_power_transfer_bound",
    "weak_threshold",
)


def test_public_surface_is_pinned():
    """df0l.__all__ is exactly the pinned names, each resolves, and a star
    import binds exactly them: a change to the public API shows here."""
    import df0l
    assert PUBLIC == tuple(sorted(PUBLIC))
    assert tuple(df0l.__all__) == PUBLIC
    assert len(set(df0l.__all__)) == len(df0l.__all__)
    for name in PUBLIC:
        getattr(df0l, name)
    namespace = {}
    exec("from df0l import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_benchmark_traced_names_resolve():
    """Every (module, attribute) that the benchmark's tracer wraps exists on
    df0l, so renaming or deleting one fails here, not only in a traced run."""
    import df0l.cli     # the tracer reaches df0l.cli as an attribute
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(getattr(df0l, module_name), attr)), (module_name, attr)
