"""Code-shape guards over ``src/repro``.

* No function or method is too long.  The replay compiler used to be one
  ~800-line function; it is now a table of per-op lowerings plus separate
  passes, and no single top-level function or method may grow back past
  the limit.
* The replay engine and stage fusion compute values only: counters come
  from :func:`repro.analysis.lint.predict_counters`, so neither module may
  use a per-access counter rule itself.
* One launch loop: a program is recorded and compiled in one function
  (the replay stage's acquisition), and no trace module re-enters
  ``Kernel.launch`` — batched, replay and fused launches, fallbacks
  included, all run the chunk loop of ``repro.gpu.kernel.launch_stages``.
* One lane-shift rule and one global scatter: shuffles shift lanes only
  in ``repro.gpu.warp.lane_shift`` (no ``[..., :ws - amount]`` slices in
  the engines) and global stores write buffers only in
  ``repro.gpu.memory.scatter_global``.
* One Jacobi driver: iterated stencils ping-pong and merge their launches
  only in ``repro.kernels.common.run_jacobi`` (the convolution chain merges
  its passes itself), and no kernel or baseline entry takes a
  ``functional`` knob — a closed-form cost has its own entry.
* Two direct schemes, one row per baseline: every functional convolution
  and stencil baseline kernel wraps ``repro.baselines.direct.naive_block``
  or ``shared_block``, and their launch shapes and closed-form counts come
  from ``direct`` too.  Only ``direct.resolve`` resolves a baseline's part
  and precision, and nothing outside ``direct`` calls a scheme's launch
  builder or closed form.
* One launch shape per SSAM kernel: the plan shapes the 2-D launches and
  each other SSAM kernel module builds its ``LaunchConfig`` in one
  function.  The performance model prices the closed form it is handed:
  no model function counts, shapes a launch, resolves a part, a precision
  or a plan, or takes a launch-parameter knob.  Nor does a kernel's closed
  form (``analytic_*``): it takes the plan, geometry or config its caller
  resolved once.
* One experiment surface: every module of the runner's registry has
  exactly ``jobs(quick)``, ``assemble(payloads, quick)`` and ``render`` —
  no in-process ``run``/``report`` fork and no sweep-override parameter
  beside ``quick``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: longest top-level function or method body allowed, in source lines
MAX_FUNCTION_LINES = 200


def _functions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _long_functions(limit: int):
    found = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, node in _functions(tree):
            length = node.end_lineno - node.lineno + 1
            if length > limit:
                where = path.relative_to(REPO_ROOT)
                found.append(f"{where}:{node.lineno} {name} ({length} lines)")
    return found


def test_no_function_exceeds_the_line_limit():
    too_long = _long_functions(MAX_FUNCTION_LINES)
    assert not too_long, "functions over the limit: " + "; ".join(too_long)


def test_guard_sees_source_functions():
    # the scan must actually reach the package (an empty scan passes
    # vacuously): at a limit of one line every function is reported
    assert len(_long_functions(1)) > 100


#: the per-access counter rules; only the counting code may apply them
COUNTER_RULES = {"global_access_counts", "shared_access_counts",
                 "rowwise_unique_counts", "grouped_warp_counts"}


def _names_used(path: pathlib.Path) -> set:
    """Every imported name and every identifier or attribute referenced."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ["replay.py", "rows.py", "fusion.py"])
def test_value_engines_use_no_counter_rule(module):
    used = _names_used(SOURCE_ROOT / "trace" / module)
    assert not used & COUNTER_RULES


def test_counter_rule_guard_sees_the_rules():
    # the scan must recognise the rules where the engines use them
    used = set().union(*(_names_used(path)
                         for path in (SOURCE_ROOT / "gpu").glob("*.py")))
    assert COUNTER_RULES <= used


def _callers_in(tree: ast.Module, names: set) -> set:
    """Functions of ``tree`` that call one of ``names``; calls in a nested
    function count for its top-level function or method."""
    found = set()
    for name, func in _functions(tree):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            called = (target.id if isinstance(target, ast.Name)
                      else getattr(target, "attr", None))
            if called in names:
                found.add(name)
    return found


def _callers(names: set) -> set:
    """``(module, function)`` of every function in ``src/repro`` that calls
    one of ``names``."""
    found = set()
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = str(path.relative_to(SOURCE_ROOT))
        found.update((module, name) for name in _callers_in(tree, names))
    return found


def test_programs_are_acquired_in_one_function():
    assert _callers({"record_trace", "compile_trace"}) == {
        ("trace/replay.py", "ReplayStage._acquire")}


def test_no_trace_module_calls_launch():
    launches = {(module, name) for module, name in _callers({"launch"})
                if module.startswith("trace/")}
    assert not launches


def test_launch_guard_sees_launch_calls():
    # the scan must find the kernels' own launches (an empty scan passes
    # vacuously)
    assert any(module.startswith("kernels/")
               for module, _ in _callers({"launch"}))


def _shift_slices(path: pathlib.Path) -> list:
    """Line numbers of slices bounded by a difference — the lane-shift
    rule's ``[..., amount:]`` / ``[..., :ws - amount]`` kind."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Slice) and any(
                isinstance(bound, ast.BinOp) and isinstance(bound.op, ast.Sub)
                for bound in (node.lower, node.upper)):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", ["trace/replay.py", "trace/rows.py",
                                    "gpu/batch.py"])
def test_engines_shift_no_lanes_themselves(module):
    assert not _shift_slices(SOURCE_ROOT / module)


def test_shift_guard_sees_the_lane_shift():
    # the helper's own flat shift is the pattern the guard looks for
    assert _shift_slices(SOURCE_ROOT / "gpu" / "warp.py")


def test_shuffles_shift_lanes_in_one_function():
    assert _callers({"lane_shift"}) == {
        ("gpu/warp.py", "shfl_up"), ("gpu/warp.py", "shfl_down"),
        ("trace/replay.py", "_lower_shfl"),
        ("trace/replay.py", "_lower_fused_mad")}


def _flat_stores_in(tree: ast.Module) -> set:
    """Functions of ``tree`` that assign into ``<array>.flat[...]``."""
    found = set()
    for name, func in _functions(tree):
        for node in ast.walk(func):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target]
                       if isinstance(node, ast.AugAssign) else [])
            if any(isinstance(t, ast.Subscript)
                   and isinstance(t.value, ast.Attribute)
                   and t.value.attr == "flat" for t in targets):
                found.add(name)
    return found


def _flat_stores() -> set:
    """``(module, function)`` of every assignment into ``<array>.flat[...]``
    in ``src/repro``."""
    found = set()
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = str(path.relative_to(SOURCE_ROOT))
        found.update((module, name) for name in _flat_stores_in(tree))
    return found


def test_global_stores_scatter_in_one_function():
    # the other ``.flat`` store is the shared-memory scatter
    assert _flat_stores() == {
        ("gpu/memory.py", "scatter_global"),
        ("gpu/batch.py", "BatchedBlockContext.store_shared")}
    assert _callers({"scatter_global"}) == {
        ("gpu/batch.py", "BatchedBlockContext.store_global"),
        ("trace/replay.py", "_lower_global"),
        ("trace/replay.py", "_global_chunk_access")}


def test_flat_store_guard_sees_a_buffer_store():
    # stores written the way the engines used to write them are reported
    tree = ast.parse(
        "def plain(buffer, idx, values):\n"
        "    buffer.flat[idx] = values.astype(buffer.dtype, copy=False)\n"
        "class Step:\n"
        "    def masked(self, buffer, idx, values, mask):\n"
        "        buffer.flat[idx[mask]] = values[mask]\n")
    assert _flat_stores_in(tree) == {"plain", "Step.masked"}


def test_jacobi_steps_merge_in_one_driver():
    assert _callers({"merged_with"}) == {
        ("kernels/common.py", "run_jacobi"),
        ("kernels/conv2d_ssam.py", "ssam_convolve2d_chain")}


def test_merge_guard_sees_a_ping_pong_loop():
    # a wrapper that runs its own ping-pong loop is reported
    tree = ast.parse(
        "def wrapper(kernel, buffers, iterations):\n"
        "    merged = None\n"
        "    for step in range(iterations):\n"
        "        launch = kernel.launch(buffers[step % 2])\n"
        "        merged = launch if merged is None else merged.merged_with(launch)\n")
    assert _callers_in(tree, {"merged_with"}) == {"wrapper"}


def _takes_parameter(tree: ast.Module, parameter: str) -> set:
    """Functions of ``tree``, nested ones included, with a parameter named
    ``parameter``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if any(arg.arg == parameter
                   for arg in args.posonlyargs + args.args + args.kwonlyargs):
                found.add(node.name)
    return found


def test_no_kernel_entry_takes_a_functional_knob():
    found = set()
    for package in ("kernels", "baselines"):
        for path in sorted((SOURCE_ROOT / package).glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            found.update((f"{package}/{path.name}", name)
                         for name in _takes_parameter(tree, "functional"))
    assert not found


def test_functional_guard_sees_a_knob():
    tree = ast.parse(
        "def npp_like(image, spec, functional=True, width=None):\n"
        "    pass\n"
        "def _shared_like(label, image, *, functional):\n"
        "    pass\n")
    assert _takes_parameter(tree, "functional") == {"npp_like", "_shared_like"}


#: kernel name -> block body of every functional direct baseline
DIRECT_KERNELS = {
    "npp_like_conv2d": "naive_block",
    "shared_conv2d": "shared_block",
    "original_stencil2d": "naive_block",
    "shared_stencil2d": "shared_block",
    "original_stencil3d": "naive_block",
}


def _kernel_bodies(tree: ast.Module) -> dict:
    """``{kernel name: block body}`` of every ``Kernel(body, name=...)``
    call in ``tree``."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Kernel":
            name = next(kw.value.value for kw in node.keywords if kw.arg == "name")
            found[name] = ast.unparse(node.args[0])
    return found


def _block_bodies(tree: ast.Module) -> set:
    """Functions of ``tree`` whose first parameter is the block context."""
    return {name for name, func in _functions(tree)
            if func.args.args and func.args.args[0].arg == "ctx"}


def test_direct_baselines_wrap_the_two_schemes():
    kernels, bodies = {}, set()
    for path in sorted((SOURCE_ROOT / "baselines").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        kernels.update(_kernel_bodies(tree))
        bodies.update((path.name, name) for name in _block_bodies(tree))
    assert kernels == DIRECT_KERNELS
    assert bodies == {("direct.py", "naive_block"), ("direct.py", "shared_block")}


def test_direct_baselines_count_in_the_two_schemes():
    # closed forms and launch shapes outside ``direct`` belong to the
    # analytic-only models, which run no kernel
    builders = {(module, name)
                for module, name in _callers({"KernelCounters", "LaunchConfig"})
                if module.startswith("baselines/")}
    assert builders == {
        ("baselines/direct.py", "naive_launch"),
        ("baselines/direct.py", "naive_counters"),
        ("baselines/direct.py", "shared_launch"),
        ("baselines/direct.py", "shared_counters"),
        ("baselines/conv2d.py", "cudnn_like_convolve2d_analytic"),
        ("baselines/conv2d.py", "cufft_like_convolve2d_analytic"),
        ("baselines/stencil2d.py", "_register_scheme_stencil2d"),
        ("baselines/stencil3d.py", "shared_stencil3d"),
        ("baselines/temporal.py", "ssam_temporal_stencil"),
        ("baselines/temporal.py", "stencilgen_like_stencil")}


#: a direct scheme's launch builders and closed forms
SCHEME_CALLS = {"naive_launch", "shared_launch", "naive_counters", "shared_counters"}
#: what a direct baseline resolves once, in ``direct.resolve``
RESOLUTION_CALLS = {"get_architecture", "resolve_precision"}
DIRECT_MODULE = "baselines/direct.py"


def _direct_faults(modules: dict) -> set:
    """``(module, function)`` of every scheme call outside ``direct`` and
    every resolution of a part or precision in ``direct`` outside its
    resolver, over ``{module: tree}``."""
    faults = set()
    for module, tree in modules.items():
        if module == DIRECT_MODULE:
            found = _callers_in(tree, RESOLUTION_CALLS) - {"resolve"}
        else:
            found = _callers_in(tree, SCHEME_CALLS)
        faults.update((module, name) for name in found)
    return faults


def test_direct_baselines_resolve_once_in_direct():
    modules = {str(path.relative_to(SOURCE_ROOT)): ast.parse(path.read_text(), str(path))
               for path in sorted(SOURCE_ROOT.rglob("*.py"))}
    assert not _direct_faults(modules)
    # the scan must reach the resolver and the schemes' one caller each
    direct = modules[DIRECT_MODULE]
    assert _callers_in(direct, RESOLUTION_CALLS) == {"resolve"}
    assert _callers_in(direct, {"naive_launch", "shared_launch"}) == {"resolve"}
    assert _callers_in(direct, {"naive_counters", "shared_counters"}) == {"closed_form"}


def test_direct_guard_sees_a_wrapper_and_a_second_resolution():
    # a per-baseline wrapper beside the table is reported, in either module
    wrapper = ast.parse(
        "def npp_like_convolve2d_analytic(spec, width, height, architecture):\n"
        "    arch = get_architecture(architecture)\n"
        "    config = naive_launch(width, height, 1, prec, 128, 32, 2.0)\n"
        "    return naive_counters(config, taps, arch, width, height, 1, 1, 2.0)\n")
    resolving_run = ast.parse(
        "def resolve(row, spec, domain, iterations, architecture, precision):\n"
        "    return get_architecture(architecture)\n"
        "def run(row, array, spec, architecture='p100', precision='float32'):\n"
        "    prec = resolve_precision(precision)\n")
    assert _direct_faults({"baselines/conv2d.py": wrapper,
                           DIRECT_MODULE: resolving_run}) == {
        ("baselines/conv2d.py", "npp_like_convolve2d_analytic"),
        (DIRECT_MODULE, "run")}


def test_model_builds_no_baseline_launch():
    # every model prices its kernel's closed form (``model_direct`` a
    # baseline's, the ``model_*`` of the SSAM kernels their
    # ``analytic_launch``); the plan builds the 2-D SSAM launches
    builders = {(module, name)
                for module, name in _callers({"KernelCounters", "LaunchConfig"})
                if module.startswith("core/")}
    assert builders == {("core/plan.py", "SSAMPlan.launch_config")}


def test_each_ssam_kernel_shapes_its_launch_once():
    # the 2-D kernels take theirs from the plan
    builders = {}
    for path in sorted((SOURCE_ROOT / "kernels").glob("*_ssam.py")):
        tree = ast.parse(path.read_text(), str(path))
        builders[path.name] = _callers_in(tree, {"LaunchConfig"})
    assert builders == {
        "conv1d_ssam.py": {"launch_config"},
        "conv2d_ssam.py": set(),
        "scan_ssam.py": {"launch_config"},
        "stencil2d_ssam.py": set(),
        "stencil3d_ssam.py": {"launch_geometry"}}


def test_launch_guard_sees_a_second_builder():
    # a wrapper that shapes its launch beside the launch function is reported
    tree = ast.parse(
        "def launch_config(length, arch, prec):\n"
        "    return LaunchConfig(grid_dim=(length, 1, 1), precision=prec)\n"
        "def ssam_scan(sequence, arch, prec):\n"
        "    config = LaunchConfig(grid_dim=(sequence.size, 1, 1))\n")
    assert _callers_in(tree, {"LaunchConfig"}) == {"launch_config", "ssam_scan"}


#: what a kernel's closed forms leave to its wrappers and the registry
ANALYTIC_FORBIDDEN_CALLS = {"get_architecture", "resolve_precision",
                            "plan_convolution", "plan_stencil", "launch_geometry"}


def _closed_forms(tree: ast.Module) -> set:
    """Functions of ``tree`` named ``analytic_*`` (the closed forms)."""
    return {name for name, _ in _functions(tree) if name.startswith("analytic_")}


def _closed_form_faults(tree: ast.Module) -> set:
    """Closed forms of ``tree`` that resolve a part, a precision, a plan or
    a launch geometry instead of taking the resolved one."""
    return _closed_forms(tree) & _callers_in(tree, ANALYTIC_FORBIDDEN_CALLS)


def test_closed_forms_take_their_resolved_launch():
    closed_forms, faults = set(), set()
    for path in sorted((SOURCE_ROOT / "kernels").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        closed_forms.update((path.name, name) for name in _closed_forms(tree))
        faults.update((path.name, name) for name in _closed_form_faults(tree))
    assert not faults
    # the scan must reach every closed form (an empty scan passes vacuously)
    assert closed_forms == {
        ("common.py", "analytic_result"),
        ("conv1d_ssam.py", "analytic_launch"),
        ("conv2d_ssam.py", "analytic_counters"),
        ("conv2d_ssam.py", "analytic_launch"),
        ("conv2d_ssam.py", "analytic_chain_launch"),
        ("scan_ssam.py", "analytic_launch"),
        ("stencil2d_ssam.py", "analytic_counters"),
        ("stencil2d_ssam.py", "analytic_launch"),
        ("stencil3d_ssam.py", "analytic_counters"),
        ("stencil3d_ssam.py", "analytic_launch")}


def test_closed_form_guard_sees_a_planner_and_a_geometry():
    # a closed form that plans for itself is reported; a wrapper is not
    tree = ast.parse(
        "def analytic_launch(spec, width, height, architecture='p100', plan=None):\n"
        "    if plan is None:\n"
        "        plan = plan_convolution(spec, get_architecture(architecture))\n"
        "    return plan\n"
        "def analytic_counters(spec, width, height, depth):\n"
        "    return launch_geometry(spec, width, height, depth).config\n"
        "def ssam_convolve2d(image, spec, architecture='p100'):\n"
        "    return plan_convolution(spec, architecture)\n")
    assert _closed_form_faults(tree) == {"analytic_launch", "analytic_counters"}


#: what the model engine leaves to the closed forms and the registry
MODEL_FORBIDDEN_CALLS = {"KernelCounters", "LaunchConfig", "get_architecture",
                         "resolve_precision", "plan_convolution", "plan_stencil",
                         "paper_default", "launch_geometry", "analytic_launch"}
MODEL_FORBIDDEN_PARAMETERS = ("outputs_per_thread", "block_threads", "block_rows")


def _model_engine_faults(tree: ast.Module) -> set:
    """Forbidden calls and knobs of the functions from ``ModelPrediction``
    on (the model engine half of the performance model)."""
    start = next(node.lineno for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "ModelPrediction")
    engine = ast.Module(body=[node for node in tree.body if node.lineno >= start],
                        type_ignores=[])
    faults = {f"calls:{name}" for name in _callers_in(engine, MODEL_FORBIDDEN_CALLS)}
    for parameter in MODEL_FORBIDDEN_PARAMETERS:
        faults.update(f"{name}({parameter})"
                      for name in _takes_parameter(engine, parameter))
    return faults


def test_model_engine_prices_only_what_it_is_handed():
    path = SOURCE_ROOT / "core" / "performance_model.py"
    tree = ast.parse(path.read_text(), str(path))
    assert not _model_engine_faults(tree)
    # the scan must reach the engine (an empty scan passes vacuously)
    names = {name for name, _ in _functions(tree)}
    assert "predict_launch" in names
    # perfbench counts every ``model_*`` call: one per model evaluation
    assert {name for name in names if name.startswith("model_")} == {
        "model_convolution2d", "model_stencil2d", "model_stencil3d",
        "model_convolution1d", "model_scan", "model_direct"}


def test_model_engine_guard_sees_a_knob_and_a_planner():
    tree = ast.parse(
        "class ModelPrediction:\n"
        "    pass\n"
        "def model_scan(length, architecture, block_threads=None):\n"
        "    arch = get_architecture(architecture)\n"
        "    return LaunchConfig(grid_dim=(length, 1, 1))\n")
    assert _model_engine_faults(tree) == {
        "calls:model_scan", "model_scan(block_threads)"}


def test_scheme_guard_sees_a_private_block_body():
    # a baseline that writes its own block body is reported
    tree = ast.parse(
        "def _npp_block(ctx, src, dst, weights):\n"
        "    pass\n"
        "NPP_KERNEL = Kernel(_npp_block, name='npp_like_conv2d')\n")
    assert _kernel_bodies(tree) == {"npp_like_conv2d": "_npp_block"}
    assert _block_bodies(tree) == {"_npp_block"}


#: in-process forks an experiment module may not define beside its pipeline
EXPERIMENT_FORKS = {"run", "run_all", "run_both", "report"}
#: the only parameters of an experiment's pipeline functions
PIPELINE_PARAMETERS = {"jobs": {"quick"}, "assemble": {"payloads", "quick"}}


def _module_names(tree: ast.Module) -> set:
    """Names a module binds at top level with a ``def`` or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _surface_faults(tree: ast.Module) -> set:
    """The forks a module defines, and every parameter of its ``jobs`` or
    ``assemble`` beyond the pipeline's own, as ``"jobs(name)"``."""
    faults = _module_names(tree) & EXPERIMENT_FORKS
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in PIPELINE_PARAMETERS):
            args = node.args
            params = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
            params.update(arg.arg for arg in (args.vararg, args.kwarg) if arg)
            faults.update(f"{node.name}({param})"
                          for param in params - PIPELINE_PARAMETERS[node.name])
    return faults


def test_experiments_have_one_surface():
    from repro.experiments.runner import EXPERIMENTS

    faults = {}
    for name, module in EXPERIMENTS.items():
        path = pathlib.Path(module.__file__)
        tree = ast.parse(path.read_text(), str(path))
        # the scan must find the pipeline it guards
        assert {"jobs", "assemble", "render"} <= _module_names(tree), name
        if _surface_faults(tree):
            faults[name] = sorted(_surface_faults(tree))
    assert not faults


def test_surface_guard_sees_a_fork():
    # a second in-process path and its sweep overrides are reported
    tree = ast.parse(
        "def jobs(quick=False, filter_sizes=None):\n"
        "    pass\n"
        "def assemble(payloads, quick=False, *, width=8192, **overrides):\n"
        "    pass\n"
        "def run(architecture='p100', precision='float32'):\n"
        "    pass\n"
        "run_all = run\n"
        "def report(quick=False):\n"
        "    pass\n")
    assert _surface_faults(tree) == {
        "jobs(filter_sizes)", "assemble(width)", "assemble(overrides)",
        "run", "run_all", "report"}
