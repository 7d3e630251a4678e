"""The package's public surface: ``singlab.__all__`` and the modules' lists
it is built from.  A star import that leaks or drops a name fails here."""

import importlib

import singlab

MODULES = ("chains", "errors", "eta", "exact", "invariants", "search", "type_t")

PUBLIC_NAMES = [
    "AtNode",
    "CyclicQuotient",
    "DivisionByZero",
    "FamilyClosedForm",
    "IndexOutOfRange",
    "InternalCheckError",
    "InvalidChain",
    "InvalidConfiguration",
    "InvalidN",
    "InvalidSite",
    "InvariantReport",
    "MODES",
    "MismatchError",
    "NonMinimalChain",
    "NotInvertible",
    "NotMinusOneCurve",
    "OnCurve",
    "ResolutionChain",
    "ResolutionConfiguration",
    "RowLimitExceeded",
    "SearchQuery",
    "SinglabError",
    "TypeTInvariants",
    "TypeTParams",
    "UnsupportedFamily",
    "artin_configuration",
    "attach_family",
    "blow_down",
    "blow_up",
    "cf_eval",
    "cf_eval_pair",
    "chain_to_quotient",
    "configuration",
    "configuration_invariants",
    "decimal_str",
    "enumerate_type_t",
    "eta_cotangent",
    "eta_exact",
    "family_minimal_graph",
    "find_type_t_substrings",
    "grow_left",
    "grow_right",
    "hj_resolve",
    "mod_inverse",
    "non_minimal_graph",
    "recognize_type_t",
    "row_limit",
    "scan",
    "scan_pieces",
    "seed_chain",
    "theorem_tables",
    "type_t_group",
    "type_t_invariants",
    "type_t_string",
]


def _module(name):
    return importlib.import_module(f"singlab.{name}")


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 54
    assert sorted(singlab.__all__) == PUBLIC_NAMES
    assert len(set(singlab.__all__)) == len(singlab.__all__)


def test_every_exported_name_resolves():
    for name in singlab.__all__:
        assert getattr(singlab, name) is not None


def test_module_lists_name_what_the_module_defines():
    for mod_name in MODULES:
        module = _module(mod_name)
        for name in module.__all__:
            obj = vars(module)[name]
            # A class or function names its home module; a constant such as
            # MODES is checked by being in the module's namespace.
            assert getattr(obj, "__module__", module.__name__) == module.__name__, (
                f"{mod_name}.{name} is defined in {obj.__module__}"
            )


def test_no_name_is_exported_by_two_modules():
    owner = {}
    for mod_name in MODULES:
        for name in _module(mod_name).__all__:
            assert name not in owner, f"{name} is exported by {owner[name]} and {mod_name}"
            owner[name] = mod_name
    assert sorted(owner) == PUBLIC_NAMES
    for name, mod_name in owner.items():
        assert getattr(singlab, name) is getattr(_module(mod_name), name)


RENDER_NAMES = [
    "FORMATS",
    "chain_text",
    "csv_part",
    "json_part",
    "render_csv",
    "render_json",
    "render_table",
    "stitch",
    "table_part",
]


def test_render_exports_one_stitch_entry_point():
    # render is not re-exported by the package; its list is pinned here, so
    # that a per-format stitch wrapper cannot come back unnoticed.
    # render_<fmt> stay: the benchmark's tracer wraps them.
    render = _module("render")
    assert render.__all__ == RENDER_NAMES
    for name in RENDER_NAMES:
        assert getattr(render, name) is not None
