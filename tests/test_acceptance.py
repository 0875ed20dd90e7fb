"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the same condition, so the suite doubles
as a human-readable scorecard.
"""

import math

import numpy as np
import pytest

from caputo_oracle import caputo_quadrature, derivative
from conftest import dense_coboundary
from fracdec import (
    Cochain,
    FracConfig,
    barycenters,
    build_coboundary,
    build_frac_derivative,
    convergence_study,
    field_experiment_2d,
    frac_derivative_1d,
    generate_interval_mesh,
    generate_unit_square_mesh,
    get_family,
)
from fracdec.analysis import edge_integrals, eval_at_barycenters, whitney_reconstruct
from fracdec.mesh import apply_coboundary
from fracdec.metric import all_pairs_vertex_distance, simplex_distance
from fracdec.special import gamma, mittag_leffler
from fracdec.cli import main as cli_main

REFERENCE_L2 = {2: 1.5619, 4: 0.9933, 8: 0.6778, 16: 0.4759, 32: 0.3363,
                64: 0.2378, 128: 0.1681, 256: 0.1188, 512: 0.0839, 1024: 0.0593}


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_l2_convergence_table():
    fam = get_family("poly_neg10x3_plus_10x2")
    counts = sorted(REFERENCE_L2)
    rows = convergence_study(fam, 0.5, counts,
                             config=FracConfig(s=0.5, right_sign="plus"))
    errs = np.array([r["error"] for r in rows])
    off = [f"n={n}: {err:.4f}" for n, err in zip(counts, errs)
           if f"{err:.4f}" != f"{REFERENCE_L2[n]:.4f}"]
    decreasing = bool(np.all(np.diff(errs) < 0))
    tail = errs[counts.index(128):]
    ratios = tail[1:] / tail[:-1]
    ratios_ok = bool(np.all((ratios >= 0.69) & (ratios <= 0.72)))
    ok = not off and decreasing and ratios_ok
    _report(1, ok,
            f"right_sign=plus, rows off the reference table at four digits: "
            f"{off or 'none'}, strictly decreasing={decreasing}, n>=128 ratios "
            f"{np.round(ratios, 4).tolist()} in [0.69, 0.72]")


def test_oracle_cross_validation():
    xs = np.linspace(0.05, 0.95, 19)
    worst = 0.0
    checks = []
    fam = get_family("power", q=3)
    checks += [("power", abs(fam.reference(x, 0.5)
                             - caputo_quadrature(lambda t: 3 * t ** 2, 0, 1, x, 0.5,
                                                 side="left"))) for x in xs]
    # The paper states x^3 at s = 1/2 with the right-hand part subtracted.
    for name, sign in (("cubic_x3", "minus"), ("poly_neg10x3_plus_10x2", "plus")):
        fam = get_family(name)
        checks += [(name, abs(fam.reference(x, 0.5, sign)
                              - caputo_quadrature(derivative(fam), 0, 1, x, 0.5,
                                                  side="two_sided",
                                                  right_sign=sign)))
                   for x in xs]
    fam = get_family("exp_x")
    checks += [("exp_x", abs(fam.reference(x, 0.5)
                             - caputo_quadrature(math.exp, 0, 1, x, 0.5,
                                                 side="left"))) for x in xs]
    for name in ("saddle_2d", "shifted_min_2d"):
        fam = get_family(name)
        for x in xs:
            vec = fam.reference(x, x, 0.5, "plus")
            for comp in range(2):
                oracle = caputo_quadrature(derivative(fam, comp), 0, 1, x, 0.5,
                                           side="two_sided", right_sign="plus")
                checks.append((f"{name}[{comp}]", abs(float(vec[comp]) - oracle)))
    worst = max(d for _, d in checks)
    ok = worst < 1e-6
    _report(2, ok, f"{len(checks)} closed-form vs quadrature comparisons, "
                   f"worst absolute deviation {worst:.2e} (<1e-6)")


def test_structural_identities():
    cx2 = generate_unit_square_mesh(4)
    d0 = build_coboundary(cx2, 0)
    d1 = build_coboundary(cx2, 1)
    dd_zero = not np.any(d1 @ (d0 @ np.eye(cx2.n_simplices(0), dtype=np.int64)))
    dd_zero &= (dense_coboundary(cx2, 1) @ dense_coboundary(cx2, 0)).count_nonzero() == 0

    const_zero = True
    for cx in (generate_interval_mesh(0, 1, 16), cx2):
        op = build_frac_derivative(cx, 0, FracConfig(s=0.5))
        out = op.apply(Cochain(0, np.full(cx.n_simplices(0), 2.5))).values
        const_zero &= bool(np.all(out == 0.0))

    rng = np.random.default_rng(123)
    bitexact = True
    for _ in range(100):
        if rng.random() < 0.7:
            cx = generate_interval_mesh(0, 1, int(rng.integers(2, 40)))
            p = 0
        else:
            cx = generate_unit_square_mesh(int(rng.integers(1, 5)))
            p = int(rng.integers(0, 2))
        v = rng.normal(size=cx.n_simplices(p))
        got = build_frac_derivative(cx, p, FracConfig(s=1.0)).apply(
            Cochain(p, v)).values
        bitexact &= bool(np.array_equal(got, dense_coboundary(cx, p) @ v))

    ok = dd_zero and const_zero and bitexact
    _report(3, ok, f"D.D=0 integer-exact: {dd_zero}; constants annihilated "
                   f"exactly: {const_zero}; s=1 bit-exact on 100 random "
                   f"cochains/meshes: {bitexact}")


def test_special_functions():
    fact_ok = all(abs(gamma(n + 1) - math.factorial(n)) <= 1e-10 * math.factorial(n)
                  for n in range(13))
    half_ok = abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-13
    zs = np.linspace(0.0, 1.0, 21)
    ml_exp = max(abs(mittag_leffler(1, 1, z) - math.exp(z)) for z in zs)
    ml_e12 = max(abs(mittag_leffler(1, 2, z)
                     - ((math.exp(z) - 1) / z if z else 1.0)) for z in zs)
    ok = fact_ok and half_ok and ml_exp < 1e-12 and ml_e12 < 1e-12
    _report(4, ok, f"Gamma(n+1)=n! (n<=12): {fact_ok}; Gamma(1/2)=sqrt(pi): "
                   f"{half_ok}; E_11 vs exp max {ml_exp:.2e}; "
                   f"E_12 vs (e^z-1)/z max {ml_e12:.2e} (both <1e-12)")


def test_whitney_properties():
    cx = generate_unit_square_mesh(4)
    rng = np.random.default_rng(77)
    worst_rec = 0.0
    for _ in range(200):
        c = Cochain(1, rng.normal(size=cx.n_simplices(1)))
        field = whitney_reconstruct(cx, c)
        worst_rec = max(worst_rec,
                        float(np.max(np.abs(edge_integrals(field, cx) - c.values))))
    verts = cx.vertex_coords
    f = Cochain(0, 1.7 * verts[:, 0] - 0.6 * verts[:, 1] + 0.2)
    field = whitney_reconstruct(cx, apply_coboundary(build_coboundary(cx, 0), f))
    vecs = eval_at_barycenters(field, cx)
    worst_lin = float(np.max(np.abs(vecs - np.array([1.7, -0.6]))))
    ok = worst_rec < 1e-12 and worst_lin < 1e-12
    _report(5, ok, f"edge-integral recovery on 200 random cochains, worst "
                   f"{worst_rec:.2e}; constant-gradient reconstruction worst "
                   f"{worst_lin:.2e} (both <1e-12)")


def test_exp_left_sided_experiment():
    fam = get_family("exp_x")
    cfg = FracConfig(s=0.5, sidedness="left_sided")
    errors = []
    undershoot = True
    for n in (8, 16, 32, 64, 128):
        cx, deriv = frac_derivative_1d(n, fam, cfg)
        x = barycenters(cx, 1)[:, 0]
        analytic = fam.reference(x, 0.5)
        undershoot &= bool(np.all(deriv.values < analytic))
        errors.append(float(np.max(np.abs(deriv.values - analytic))))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    ok = monotone and undershoot
    _report(6, ok, f"Linf errors {np.round(errors, 4).tolist()} strictly "
                   f"decreasing: {monotone}; discrete values undershoot the "
                   f"analytic curve everywhere: {undershoot}")


def test_gradient_field_experiments_2d():
    fam = get_family("saddle_2d")
    results = {}
    for normalize in ("reference", "predicted"):
        per_n = []
        for n in (4, 8, 16):
            cfg = FracConfig(s=0.5, distance_mode="euclidean")
            res = field_experiment_2d(n, fam, cfg, normalize=normalize)
            rel, cent = res["relative_errors"], res["centers"]
            finite = bool(np.all(np.isfinite(rel[~np.isnan(rel)])))
            mean = res["summary"]["mean"]
            crit = cent[int(np.argmin(np.linalg.norm(res["reference"], axis=1)))]
            argmax = cent[int(np.nanargmax(rel))]
            layers = float(np.max(np.abs(argmax - crit)) * n)
            per_n.append((n, finite, mean, layers))
        results[normalize] = per_n
    pred = results["predicted"]
    ok = all(f and 0.3 <= m <= 3.0 and l <= 2.0 + 1e-9 for _, f, m, l in pred)
    ref_means = [round(m, 3) for _, _, m, _ in results["reference"]]
    _report(7, ok,
            f"predicted-normalized means "
            f"{[round(m, 3) for _, _, m, _ in pred]} in [0.3, 3.0], argmax "
            f"within {[round(l, 1) for _, _, _, l in pred]} layers of the "
            f"critical point (<=2); reference-normalized means {ref_means} "
            f"grow with n and are reported for comparison")


def test_distance_layer(vertex_distance_oracle):
    meshes = [generate_interval_mesh(0, 1, 30), generate_unit_square_mesh(3),
              generate_unit_square_mesh(5), generate_unit_square_mesh(12)]
    tri_ok = agree_ok = True
    for cx in meshes:
        assert cx.n_simplices(0) <= 200
        d = all_pairs_vertex_distance(cx).entries
        tri_ok &= bool(np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12))
        fw = vertex_distance_oracle(cx).entries
        agree_ok &= bool(np.max(np.abs(d - fw)) <= 1e-12)
    cx = generate_interval_mesh(0, 1, 16)
    geo = simplex_distance(cx, 1, "geodesic").entries
    b = barycenters(cx, 1)[:, 0]
    bary_ok = bool(np.max(np.abs(geo - np.abs(b[:, None] - b[None, :]))) <= 1e-12)
    ok = tri_ok and agree_ok and bary_ok
    _report(8, ok, f"triangle inequality exhaustive on {len(meshes)} meshes: "
                   f"{tri_ok}; Dijkstra==Floyd-Warshall within 1e-12: "
                   f"{agree_ok}; 1D geodesic==barycenter gaps within 1e-12: "
                   f"{bary_ok}")


def test_cli_determinism(tmp_path):
    cases = [
        ["convergence", "--family", "poly_neg10x3_plus_10x2",
         "--edge-counts", "2,4,8"],
        ["convergence", "--family", "power", "--edge-counts", "4,8",
         "--s-values", "0.25,0.5"],
        ["frac-deriv", "--interval", "16", "--family", "cubic_x3"],
        ["oracle-sample", "--family", "exp_x", "--points", "9"],
        ["gen-mesh", "square", "--n", "3"],
    ]
    identical = True
    for i, case in enumerate(cases):
        suffix = ".off" if case[0] == "gen-mesh" else ".csv"
        a = tmp_path / f"run_a{i}{suffix}"
        b = tmp_path / f"run_b{i}{suffix}"
        assert cli_main(case + ["-o", str(a)]) == 0
        assert cli_main(case + ["-o", str(b)]) == 0
        identical &= a.read_bytes() == b.read_bytes()
    _report(9, identical,
            f"{len(cases)} CLI experiments rerun with identical configs "
            f"produce byte-identical outputs: {identical}")
