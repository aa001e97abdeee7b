"""The benchmark's span tracer still finds every library name it pins.

bench/tracing.py wraps functions by name (LAYERS) and patches
IntPolynomial.sign_at through starwalk.spectra. A rename in src that drops
one of those names breaks the benchmark's traced runs; this test makes it
break Tier-1 instead. It only reads bench/.
"""

import importlib.util
from pathlib import Path

import starwalk.ordering
import starwalk.spectra
import starwalk.verify
import starwalk.walks
from starwalk.partitions import Ordering, Partition
from starwalk.trees import make_starlike

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_pinned_names():
    tracing = _load_tracing()
    walks_fn = starwalk.walks.closed_walk_counts
    sign_at = starwalk.spectra.IntPolynomial.sign_at
    for modname, names in tracing.LAYERS.values():
        module = importlib.import_module(modname)
        for name in names or ():
            assert callable(getattr(module, name)), f"{modname}.{name}"
    with tracing.Tracer() as tracer:
        assert starwalk.walks.closed_walk_counts is not walks_fn
        assert starwalk.spectra.IntPolynomial.sign_at is not sign_at
    assert not tracer._patches
    assert starwalk.walks.closed_walk_counts is walks_fn
    assert starwalk.spectra.IntPolynomial.sign_at is sign_at


def test_tracer_hooks_run_on_a_theorem_sweep():
    # the walks hook reads the order of a result's graph; a walks function
    # that returns something else must pass through it without an error.
    # Each order's chain reaches walks in one call through a wrapped name,
    # orders 4..8: the sweep cannot bypass the walks layer unseen
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        reports = starwalk.verify.verify_theorem(8)
    metrics = tracer.layer_metrics()
    assert reports and metrics["walks.calls"] == 5
    assert metrics["verify.reports"] == len(reports)


def test_tracer_reaches_every_checker_of_the_battery():
    # one run_suite and 333 checker calls, 27 of them check_corollaries
    # inside check_path_difference: every lemma checker runs through its
    # wrapped name, and the outermost call counts every report once
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        reports = starwalk.verify.run_suite(6, 12, jobs=1)
    metrics = tracer.layer_metrics()
    assert metrics["verify.calls"] == 334
    assert metrics["verify.reports"] == len(reports) == 318


def test_tracer_counts_walk_work_through_values():
    # the walks hook reads a result's .values: the field must stay
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        starwalk.walks.closed_walk_counts(make_starlike((1, 2, 3)), 10)
    metrics = tracer.layer_metrics()
    assert metrics["walks.calls"] == 1
    assert metrics["walks.vertex_steps"] > 0


def test_tracer_counts_exact_root_work_on_the_trio():
    # spectra.bisect.* must not silently read 0 on close-call's exact
    # compares: one wrapped call, and its sign tests through IntPolynomial
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        order = starwalk.spectra.compare_spectral_radii_exact(
            Partition((80, 90, 100)), Partition((85, 90, 95))
        )
    metrics = tracer.layer_metrics()
    assert order is Ordering.LESS
    assert metrics["spectra.bisect.calls"] == 1
    # the two signs at 2; the four values at the ends of the seeded cells
    # are no sign tests
    assert metrics["spectra.bisect.sign_tests"] == 2


def test_tracer_counts_the_charpoly_of_a_radius():
    # spectral_radius reads its charpoly through spectra.charpoly, the name
    # LAYERS wraps, so spectra.charpoly.* must not read 0 on close-call
    tracing = _load_tracing()
    g = make_starlike((80, 90, 100))
    with tracing.Tracer() as tracer:
        starwalk.spectra.spectral_radius(g)
    metrics = tracer.layer_metrics()
    assert metrics["spectra.charpoly.calls"] == 1
    assert metrics["spectra.charpoly.max_coeff_bits"] > 0


def test_tracer_sees_the_kernel_of_a_certificate():
    # a certified starlike compare folds both branch lists in one call
    # through a wrapped walks name, and builds no tree
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        out = starwalk.ordering.compare_starlike(
            Partition((80, 90, 100)), Partition((85, 90, 95)), certify=True, max_k=400
        )
    metrics = tracer.layer_metrics()
    assert out.certificate.witness_strict.k == 164
    assert metrics["walks.calls"] == 1
    assert metrics["trees.calls"] == 0


def test_tracer_sees_the_rooting_in_the_trees_layer():
    # rooted_forest is a public trees function, so the tracer counts it in
    # trees; a radius below 2 roots its tree once to check its seeded cell,
    # and one above 2 never roots it
    tracing = _load_tracing()
    counts = {}
    for branches in ((1, 1, 268), (80, 90, 100)):
        g = make_starlike(branches)
        with tracing.Tracer() as tracer:
            starwalk.spectra.spectral_radius(g)
        names = [name for _, _, name, _, _ in tracer.spans]
        counts[branches] = names.count("starwalk.trees.rooted_forest")
        # two starlike_branches besides, and no is_connected: the
        # recognizer's branches prove the graph a tree
        assert tracer.layer_metrics()["trees.calls"] == 2 + counts[branches]
    assert counts == {(1, 1, 268): 1, (80, 90, 100): 0}
