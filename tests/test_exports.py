"""The package's public surface and the names the benchmark tracer binds to.

`weakmeas.__all__` is derived from the submodules' ``__all__`` lists, so a
name dropped from (or added to) a submodule changes the public API; the
pinned set below makes that a deliberate edit, and so does the total
number of settable parameters; no function takes an ``orth_threshold``,
which is a constant. The benchmark tracer rebinds
functions by module and name, so a consolidation that renames or removes one
would silently break a traced run; the second test catches that here. The
last four tests pin boundaries in the source: no module but `pointer` asks
which kind of pointer it holds, `oracle` imports no regime route, no module
but `weak_values` names ORTH_THRESHOLD, no function but `qops._parsed`
turns a refusal into a ParseError, the pointer's ``_tables`` is the one
cache of its tables (`amplifier` holds none: it defines no class but its
two records), only `qops._point_selections` (the kernel's one batch of
one) and `amplifier._evaluate` call the selection kernel, and only
`amplifier._stacks` reads a family's own selections (``_pres``, ``_head``).
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import weakmeas

PUBLIC = {
    "__version__",
    # errors
    "WeakMeasurementError", "ValidityWarning", "NonHermitian", "ZeroOperator",
    "DimensionMismatch", "NonPositiveWidth", "WidthOutOfRange", "UnsupportedOrder",
    "EmptyGrid", "OrthogonalPPS", "NotOrthogonal", "HigherOrderOrthogonality", "OrderTooLarge",
    "NonPositiveDenominator", "DegenerateDenominator",
    "LambdaOutOfRange", "ZeroPostSelectionProbability", "GridTooSmall",
    "SeriesDiverging", "NotApplicable", "InvalidBracket", "NotUnimodal",
    "ParseError", "ConstructionFailure",
    # operators and states
    "Observable", "SystemState", "PostSelection", "new_observable", "pure_state",
    "density_state", "projector", "projector_onto", "overlap",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    # pointer
    "QGrid", "GaussianPointer", "GridPointer", "PointerState", "Density",
    "MomentSpec", "gaussian", "gaussian_profile", "grid_state", "default_grid",
    "densities", "moment", "p_power", "q_power", "variance_q", "variance_p",
    # weak values
    "WeakValueReport", "weak_value", "generalized_weak_value",
    "orthogonal_weak_value", "aav_margin", "weak_interaction_margin",
    "weak_interaction_margin_argmax", "ORTH_THRESHOLD", "G2_THRESHOLD",
    "MAX_WEAK_ORDER",
    # predictor
    "ShiftPrediction", "predict", "predict_aav", "predict_general",
    "predict_orthogonal", "predict_orthogonal_gaussian", "SGParams",
    "stern_gerlach_outcome", "sg_optimum",
    # scenario
    "Scenario", "ScenarioOptions", "make_scenario", "parse_scenario",
    "load_scenario", "scenario_to_wire", "scenario_with_weak_value",
    "scenario_with_orthogonal_weak_value", "MAX_SERIES_ORDER",
    # oracle
    "MeasurementRecord", "evolve_postselect", "success_probability",
    "series_device_state", "PROB_FLOOR",
    # amplifier
    "SweepRecord", "OptimumReport", "sweep", "find_optimum", "sg_family",
    "sweep_to_csv", "OBJECTIVES", "ENGINES",
}


def test_public_names_are_pinned_resolve_and_do_not_repeat():
    assert set(weakmeas.__all__) == PUBLIC
    assert len(weakmeas.__all__) == len(PUBLIC)
    for name in weakmeas.__all__:
        assert hasattr(weakmeas, name), name


SETTABLE_PARAMETERS = 105


def test_settable_parameters_are_pinned():
    functions = [
        getattr(weakmeas, name)
        for name in weakmeas.__all__
        if inspect.isfunction(getattr(weakmeas, name))
    ]
    # The orthogonality threshold is a constant that `weak_values._route`
    # reads, not a knob.
    assert not [fn for fn in functions if "orth_threshold" in inspect.signature(fn).parameters]
    total = sum(len(inspect.signature(fn).parameters) for fn in functions)
    assert total == SETTABLE_PARAMETERS


def test_every_traced_benchmark_function_exists():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"weakmeas.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"weakmeas.{layer}.{name}"


# What `oracle` reads from `pointer`: the frame, translation, lag-table and
# power-table layer, the moment table and the record types, never the
# sizing rules, profiles or power tables of one pointer kind.
ORACLE_POINTER_IMPORTS = {
    "_I_POWERS", "TABLE_POWER", "Density", "PointerState", "QGrid", "_frame",
    "_lag_tables", "_moment_table", "_power_table", "_translated", "_working_grid",
    "moment", "p_power", "q_power", "validate_grid_n",
}
POINTER_KINDS = {"GaussianPointer", "GridPointer"}


def test_oracle_never_branches_on_the_pointer_kind():
    # Only `pointer` asks which kind of pointer it holds (`__init__`
    # re-exports the classes): no other module imports either class or
    # calls isinstance on one.
    package = Path(__file__).resolve().parents[1] / "src" / "weakmeas"
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    assert {"cli", "oracle", "predictor"} <= set(trees)
    imported = {
        alias.name
        for node in ast.walk(trees["oracle"])
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "pointer"
        for alias in node.names
    }
    assert imported == ORACLE_POINTER_IMPORTS
    # The engines take no route: the regime decision lives outside them.
    routing = {
        alias.name
        for node in ast.walk(trees["oracle"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } & {"_route", "_point_route", "ORTH_THRESHOLD"}
    assert not routing
    # One reader of the orthogonality threshold: no other module names it.
    naming = {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "ORTH_THRESHOLD")
        or (
            isinstance(node, ast.ImportFrom)
            and "ORTH_THRESHOLD" in {alias.name for alias in node.names}
        )
    }
    assert naming == {"weak_values"}
    for module, tree in trees.items():
        if module in ("pointer", "__init__"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert not names & POINTER_KINDS, (module, ast.unparse(node))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                assert not names & POINTER_KINDS, (module, ast.unparse(node))


def _rewrapping_handlers(tree):
    """The except handlers in ``tree`` that raise a new ParseError."""
    return [
        handler
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler)
        and any(
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "ParseError"
            for node in ast.walk(handler)
        )
    ]


def test_only_one_function_rewraps_a_refusal_as_a_parse_error():
    # Outside input is refused by the constructors' own checks; the one
    # place that turns such a refusal into a ParseError naming the key is
    # `qops._parsed`.
    package = Path(__file__).resolve().parents[1] / "src" / "weakmeas"
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    found = {
        (module, handler.lineno)
        for module, tree in trees.items()
        for handler in _rewrapping_handlers(tree)
    }
    allowed = {
        ("qops", handler.lineno)
        for node in ast.walk(trees["qops"])
        if isinstance(node, ast.FunctionDef) and node.name == "_parsed"
        for handler in _rewrapping_handlers(node)
    }
    assert found == allowed
    assert len(allowed) == 1


def test_the_pointer_memo_is_the_one_table_cache():
    # Pointer tables (moments, series weights, sigma_q, the pair frame) are
    # memoized on the pointer's ``_tables``, which only `pointer` and
    # `oracle` name; the amplifier keeps no cache object of its own.
    package = Path(__file__).resolve().parents[1] / "src" / "weakmeas"
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    naming = {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) == "_tables"
    }
    assert naming == {"pointer", "oracle"}
    classes = {node.name for node in ast.walk(trees["amplifier"]) if isinstance(node, ast.ClassDef)}
    assert classes == {"SweepRecord", "OptimumReport"}


def _defining(trees, match):
    """The (module, top-level name) pairs whose definition, or module-level
    statement (name None), holds a node that ``match`` accepts."""
    return {
        (module, getattr(stmt, "name", None))
        for module, tree in trees.items()
        for stmt in tree.body
        if any(match(node) for node in ast.walk(stmt))
    }


def test_one_batch_of_one_and_one_family_probe():
    # Two functions call the selection kernel: `qops._point_selections`,
    # the batch of one behind every one-point reader, and
    # `amplifier._evaluate`, which applies it to a sweep's or a search's
    # stacks. Only `amplifier._stacks` asks whether a family offers its own
    # selections (``_pres`` and ``_head``), and binds them.
    package = Path(__file__).resolve().parents[1] / "src" / "weakmeas"
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    kernel = _defining(
        trees,
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_selection_kernel",
    )
    assert kernel == {("qops", "_point_selections"), ("amplifier", "_evaluate")}
    probe = {"_pres", "_head"}
    readers = _defining(
        trees,
        lambda node: (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in probe
        )
        or (isinstance(node, ast.Constant) and node.value in probe),
    )
    assert readers == {("amplifier", "_stacks")}
