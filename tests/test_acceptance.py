"""Acceptance suite: one test per criterion, one printed verdict line each.

Each claim is asserted at full strength inside the range where it holds.
Where the exact solvers find a counterexample at the edge of that range,
the counterexample itself is asserted exactly, so a criterion still fails
if the search stops finding it:

- criterion 2: at s=2, t=1 the non-2-star optima are exactly the n
  families of paths with a given cycle vertex as an interior vertex;
- criterion 3: at r=n/2 the non-star optima are exactly the non-star
  choices of one window from each antipodal pair;
- criterion 10: at girth 3r-3 a Helly-failing triple covers a shortest
  cycle, and maximum intersecting edge families tie star and triangle
  exactly when the graph has a triangle and maximum degree 3.
"""

import math
import time
from itertools import product

import helpers
from ekrlab.families import SetFamily, best_full_star, is_s_intersecting, is_s_star, \
    is_triangular, mask_of, stats
from ekrlab.graphs import girth, make_cycle, make_random_tree, make_sun, make_theta, \
    sun_vertex
from ekrlab.oracles import build_sun_hm_family, subdivided_complete_graph, \
    sun_allpaths_counts, sun_bound, theta_f, theta_interior_star_size
from ekrlab.paths import enumerate_paths_all, enumerate_paths_r, enumerate_paths_upto, \
    to_setfamily
from ekrlab.projective import build_pg, make_field, rotational_family, \
    triangular_char2, triangular_odd
from ekrlab.solvers import enumerate_maximum_s_intersecting, helly_triple_check, \
    max_nonstar_s_intersecting, max_s_intersecting, max_triangular_intersecting, \
    min_transversal
from ekrlab.verdicts import matches_hm_structure


def _verdict(num: int, name: str, failures: list, started: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {status} ({elapsed:.1f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures)


def _subfamily(fam: SetFamily, indices) -> SetFamily:
    return SetFamily(ground=fam.ground,
                     sets=tuple(sorted(fam.sets[i] for i in indices)))


def _all_optima_are_stars(fam: SetFamily, s: int):
    res = enumerate_maximum_s_intersecting(fam, s)
    assert not res.limits_hit
    flags = [is_s_star(_subfamily(fam, opt), s).is_star for opt in res.all_optima]
    return res, all(flags)


def test_criterion_01_cycle_uniform_ekr():
    started = time.perf_counter()
    failures = []
    for n in range(6, 13):
        g = make_cycle(n)
        for r in range(3, n // 2 + 1):
            fam = to_setfamily(enumerate_paths_r(g, r))
            res, all_stars = _all_optima_are_stars(fam, 1)
            if res.value != r:
                failures.append(f"C_{n} r={r}: value {res.value} != {r}")
            if 2 * r < n and not all_stars:
                failures.append(f"C_{n} r={r}: non-star optimum below n/2")
    for n in (6, 8, 10, 12):
        r = n // 2
        fam = to_setfamily(enumerate_paths_r(make_cycle(n), r))
        res = enumerate_maximum_s_intersecting(fam, 1)
        if all(is_s_star(_subfamily(fam, opt), 1).is_star for opt in res.all_optima):
            failures.append(f"C_{n} r={r}: expected a non-star optimum at n/2")
    assert time.perf_counter() - started < 10
    _verdict(1, "cycle EKR bound r, strict below n/2", failures, started)


def _nonstar_optima(fam: SetFamily, s: int, res) -> set:
    """The non-s-star optima of an enumeration, each as its sorted masks."""
    return {tuple(sorted(fam.sets[i] for i in opt)) for opt in res.all_optima
            if not is_s_star(_subfamily(fam, opt), s).is_star}


def test_criterion_02_sun_s_ekr():
    started = time.perf_counter()
    failures = []
    for n in range(6, 11):
        for t in (1, 2):
            g = make_sun(n, t)
            for s in (1, 2):
                for r in range(s + 2, (n + s - 1) // 2 + 1):
                    fam = to_setfamily(enumerate_paths_r(g, r))
                    res = enumerate_maximum_s_intersecting(fam, s)
                    assert not res.limits_hit
                    bound = sun_bound(n, t, r, s, variant="squared").value
                    if res.value != bound:
                        failures.append(
                            f"S_{n}^{t} r={r} s={s}: value {res.value} != "
                            f"squared bound {bound}")
                    nonstar = _nonstar_optima(fam, s, res)
                    if s == 2 and t == 1:
                        # every cycle vertex v has degree 3, so two paths with
                        # v as an interior vertex share v and one neighbour:
                        # F_v is 2-intersecting, as large as the 2-star, and
                        # its members share only v
                        walks = helpers.naive_paths(g, r, r)
                        interior = {tuple(sorted(
                            mask for seq, mask in walks
                            if sun_vertex(c, 0, t) in seq[1:-1]))
                            for c in range(n)}
                        if nonstar != interior:
                            failures.append(
                                f"S_{n}^{t} r={r} s={s}: non-2-star optima are "
                                f"not exactly the {n} interior-vertex families "
                                f"({len(nonstar)} found)")
                    elif 2 * r < n + s - 1 and nonstar:
                        failures.append(
                            f"S_{n}^{t} r={r} s={s}: non-s-star maximum family "
                            f"(size {res.value}) inside the claimed strict range")
    assert time.perf_counter() - started < 600
    _verdict(2, "sun s-intersecting bound and strictness", failures, started)


def _window_start(mask: int, n: int) -> int:
    """First vertex of a proper cyclic window on the n-cycle."""
    return next(y for y in range(n)
                if (mask >> y) & 1 and not (mask >> ((y - 1) % n)) & 1)


def test_criterion_03_cycle_hilton_milner():
    started = time.perf_counter()
    failures = []
    for n in range(9, 15):
        g = make_cycle(n)
        for r in range(3, n // 2 + 1):
            if 3 * r < n + 3:
                continue
            fam = to_setfamily(enumerate_paths_r(g, r))
            res = max_nonstar_s_intersecting(fam, 1, enumerate_optima=True)
            assert not res.limits_hit
            if res.value != 3 * r - n:
                failures.append(f"C_{n} r={r}: nonstar max {res.value} != {3 * r - n}")
            optima = [[fam.sets[i] for i in opt] for opt in res.all_optima]
            if 2 * r == n:
                # two n/2-windows are disjoint only when antipodal, so the
                # optima are the choices of one window from each antipodal pair
                windows = [mask_of((y + d) % n for d in range(r)) for y in range(n)]
                transversals = {
                    tuple(sorted(windows[y + r * pick] for y, pick in enumerate(picks)))
                    for picks in product((0, 1), repeat=r)}
                nonstar = {members for members in transversals
                           if not is_s_star(SetFamily(ground=n, sets=members), 1).is_star}
                if {tuple(sorted(opt)) for opt in optima} != nonstar:
                    failures.append(
                        f"C_{n} r={r}: non-star optima are not exactly the "
                        f"{len(nonstar)} non-star antipodal transversals")
                continue
            bad = [opt for opt in optima if not matches_hm_structure(n, r, opt)]
            if bad:
                failures.append(
                    f"C_{n} r={r}: {len(bad)}/{len(optima)} optima lack the "
                    f"two-of-three-anchors structure (first: windows starting "
                    f"{sorted(_window_start(m, n) for m in bad[0])})")
    assert time.perf_counter() - started < 120
    _verdict(3, "cycle non-star maximum 3r-n with anchor structure", failures, started)


def test_criterion_04_theta_ekr():
    started = time.perf_counter()
    failures = []
    for a in [(2, 3, 3), (2, 5, 5), (2, 7, 7), (3, 3, 3), (2, 3, 3, 3)]:
        g = make_theta(a)
        k = len(a)
        for r in range(3, (a[0] + a[1] + 1) // 2 + 1):
            fam = to_setfamily(enumerate_paths_r(g, r))
            res, _ = _all_optima_are_stars(fam, 1)
            oracle = theta_f(k, a[0], r, a2=a[1])
            if oracle.applicable and res.value != oracle.value:
                failures.append(f"theta{a} r={r}: {res.value} != f={oracle.value}")
            hub_masks = (1, 2)
            for opt in res.all_optima:
                common = is_s_star(_subfamily(fam, opt), 1).common
                if not any(common & h for h in hub_masks):
                    failures.append(f"theta{a} r={r}: optimum not centered on a hub")
            hub_size = sum(1 for m in fam.sets if m & 1)
            for vid in range(2, g.n):
                i, j = g.labels[vid]
                interior = theta_interior_star_size(a, i, j, r)
                actual = sum(1 for m in fam.sets if (m >> vid) & 1)
                if interior.applicable and interior.value != actual:
                    failures.append(
                        f"theta{a} r={r} w_({i},{j}): star {actual} != "
                        f"oracle {interior.value}")
                if not interior.applicable:
                    failures.append(f"theta{a} r={r} w_({i},{j}): no case applies")
                if actual >= hub_size:
                    failures.append(
                        f"theta{a} r={r} w_({i},{j}): interior star {actual} "
                        f"not below hub {hub_size}")
    assert time.perf_counter() - started < 600
    _verdict(4, "theta hub-star optimum f_k(r)", failures, started)


def test_criterion_05_sun_not_ekr_all_paths():
    started = time.perf_counter()
    failures = []
    for n, t in [(4, 1), (5, 1), (4, 2)]:
        counts = sun_allpaths_counts(n, t)
        fam = build_sun_hm_family(n, t)
        if not is_s_intersecting(fam, 1):
            failures.append(f"S_{n}^{t}: built family not intersecting")
        if is_s_star(fam, 1).is_star:
            failures.append(f"S_{n}^{t}: built family is a star")
        if len(fam) != counts["hm"]:
            failures.append(f"S_{n}^{t}: size {len(fam)} != {counts['hm']}")
        enum = to_setfamily(enumerate_paths_all(make_sun(n, t)))
        best_star = stats(enum).delta
        if best_star != counts["star"]:
            failures.append(f"S_{n}^{t}: best star {best_star} != {counts['star']}")
        if not len(fam) > best_star:
            failures.append(f"S_{n}^{t}: family does not beat the best star")
    for n in (4, 5, 6):
        fam = to_setfamily(enumerate_paths_all(make_cycle(n)))
        star = n * (n + 1) // 2
        omega = max_s_intersecting(fam, 1).value
        if omega != star:
            failures.append(f"C_{n} all paths: max {omega} != star {star}")
        built = build_sun_hm_family(n, 0)
        nonstar = max_nonstar_s_intersecting(fam, 1).value
        if nonstar != star or is_s_star(built, 1).is_star or len(built) != star:
            failures.append(f"C_{n}: the swapped-star family should tie at {star}")
    assert time.perf_counter() - started < 300
    _verdict(5, "sun all-paths: non-star family beats the star for t>0",
             failures, started)


def test_criterion_06_upto_strict_ekr():
    started = time.perf_counter()
    failures = []
    for n in (6, 8):
        for t in (0, 1):
            g = make_sun(n, t) if t else make_cycle(n)
            for k in range(1, n // 2 + 1):
                fam = to_setfamily(enumerate_paths_upto(g, k))
                res, all_stars = _all_optima_are_stars(fam, 1)
                star_max = best_full_star(fam, 1)[0]
                if res.value != star_max or not all_stars:
                    failures.append(
                        f"S_{n}^{t} upto k={k}: value {res.value}, star {star_max}, "
                        f"all-stars {all_stars}")
    assert time.perf_counter() - started < 300
    _verdict(6, "bounded-length families strictly EKR on suns", failures, started)


def test_criterion_07_transversal_property_suite():
    started = time.perf_counter()
    failures = []
    checked = 0
    seed = 0
    while checked < 500:
        fam = helpers.mixed_intersecting_family(seed)
        seed += 1
        if len(fam) < 1 or len(fam) > 14 or fam.ground > 16:
            continue
        checked += 1
        assert is_s_intersecting(fam, 1)
        st = stats(fam)
        m = len(fam)
        tau = min_transversal(fam).value
        lo = math.ceil(m / st.delta)
        hi = min(math.ceil(m / 2), st.min_size)
        if not lo <= tau <= hi:
            failures.append(f"seed {seed - 1}: tau {tau} outside [{lo},{hi}]")
        if is_triangular(fam) and tau != math.ceil(m / 2):
            failures.append(f"seed {seed - 1}: triangular but tau {tau} != ceil(m/2)")
        if m % 2 == 1 and tau == (m + 1) // 2 and m >= 2 and st.delta != 2:
            failures.append(f"seed {seed - 1}: odd family tau=k but delta != 2")
        if m >= 2 and (is_triangular(fam) != (st.delta == 2)):
            failures.append(f"seed {seed - 1}: triangular <=> delta=2 broken")
    assert time.perf_counter() - started < 60
    _verdict(7, f"transversal facts over {checked} generated families",
             failures, started)


def test_criterion_08_rotational_examples():
    started = time.perf_counter()
    failures = []
    for h, s_set, tau in ((4, {0, 1, 2}, 2), (6, {0, 1, 3}, 3)):
        fam = rotational_family(h, s_set)
        checks = (
            len(fam) == h,
            is_s_intersecting(fam, 1),
            min_transversal(fam).value == tau,
            stats(fam).delta == 3,
            not is_triangular(fam),
            math.ceil(len(fam) / 2) == tau,
        )
        if not all(checks):
            failures.append(f"R_{h}: checks {checks}")
    assert time.perf_counter() - started < 1
    _verdict(8, "rotational families: even-size tau equality with delta 3",
             failures, started)


def test_criterion_09_projective_planes():
    started = time.perf_counter()
    failures = []
    fields = {2: make_field(2, 1), 3: make_field(3, 1), 4: make_field(2, 2),
              5: make_field(5, 1), 7: make_field(7, 1), 8: make_field(2, 3)}
    for q, spec in fields.items():
        lines = build_pg(spec).lines
        st = stats(lines, 2)
        if not (len(lines) == q * q + q + 1 and st.delta == q + 1
                and st.delta_s[2] == 1 and st.min_size == q + 1
                and is_s_intersecting(lines, 1)):
            failures.append(f"PG({q}): incidence regularity broken")
        if min_transversal(lines).value != q + 1:
            failures.append(f"PG({q}): transversal != q+1")
    for q in (3, 5, 7):
        fam = triangular_odd(fields[q])
        if len(fam) != q + 1 or stats(fam).delta != 2:
            failures.append(f"odd construction at q={q} broken")
    for q in (2, 4, 8):
        fam = triangular_char2(fields[q])
        if len(fam) != q + 2 or stats(fam).delta != 2:
            failures.append(f"char-2 construction at q={q} broken")
    for q, expected in ((3, 4), (2, 4), (4, 6)):
        got = max_triangular_intersecting(build_pg(fields[q]).lines).value
        if got != expected:
            failures.append(f"max triangular PG({q}) = {got} != {expected}")
    assert time.perf_counter() - started < 300
    _verdict(9, "projective planes: incidence, transversal, triangular maxima",
             failures, started)


def test_criterion_10_tree_girth_helly():
    started = time.perf_counter()
    failures = []
    for seed in range(20):
        n = 4 + seed % 9
        g = make_random_tree(n, seed)
        for r in range(1, n + 1):
            fam = to_setfamily(enumerate_paths_r(g, r))
            if not helly_triple_check(fam)[0]:
                failures.append(f"tree seed {seed} r={r}: helly broken")
            res, all_stars = _all_optima_are_stars(fam, 1)
            if res.value and not all_stars:
                failures.append(f"tree seed {seed} r={r}: non-star optimum")
    # three pairwise-intersecting r-paths span at most 3(r-1) edges, so at
    # girth >= 3r-2 their union is a tree and they share a vertex; at girth
    # 3r-3 they can cover a shortest cycle
    k4 = subdivided_complete_graph(4, 3)
    assert girth(k4) == 9
    for r in (3, 4):
        fam = to_setfamily(enumerate_paths_r(k4, r))
        ok, triple = helly_triple_check(fam)
        res, all_stars = _all_optima_are_stars(fam, 1)
        if not all_stars:
            failures.append(f"subdivided K4 r={r}: non-star optimum")
        if r == 3 and not ok:
            failures.append(
                f"subdivided K4 r=3: helly fails above the girth boundary "
                f"({[fam.member(i) for i in triple]})")
        if r == 4:
            union = 0
            for i in triple or ():
                union |= fam.sets[i]
            # girth 9: a 2-regular induced subgraph on 9 vertices is a 9-cycle
            on_cycle = union.bit_count() == 9 and all(
                (k4.adj[v] & union).bit_count() == 2
                for v in range(k4.n) if (union >> v) & 1)
            if not on_cycle:
                failures.append(
                    f"subdivided K4 r=4: expected a Helly-failing triple of "
                    f"4-paths covering one 9-cycle at girth 3r-3, got "
                    f"{[fam.member(i) for i in triple or ()]}")
    # an intersecting family of at least three edges is a star or a triangle
    bad_value = []
    bad_strict = []
    for g in helpers.connected_graphs_upto(6):
        if g.n < 2:
            continue
        fam = to_setfamily(enumerate_paths_r(g, 2))
        res, all_stars = _all_optima_are_stars(fam, 1)
        delta = max(row.bit_count() for row in g.adj)
        triangle = any(g.adj[u] & g.adj[v] for u, v in g.edges)
        if res.value != max(delta, 3 * triangle):
            bad_value.append(sorted(g.edges))
        if all_stars != (not triangle or delta >= 4):
            bad_strict.append(sorted(g.edges))
    if bad_value:
        failures.append(
            f"{len(bad_value)} connected graphs <= 6 vertices with max "
            f"intersecting edge family != max(delta, 3*[triangle]) "
            f"(first: {bad_value[0]})")
    if bad_strict:
        failures.append(
            f"{len(bad_strict)} connected graphs <= 6 vertices where all-star "
            f"optima do not coincide with 'no triangle or delta >= 4' "
            f"(first: {bad_strict[0]})")
    assert time.perf_counter() - started < 300
    _verdict(10, "trees and girth: helly and star structure", failures, started)
