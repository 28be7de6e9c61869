"""Group cohomology: closed forms, the lattice model, the differential map."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildcoh import acceptance, ascover, cohom, linalg, modrep, profile
from wildcoh.cohom import CyclicModule
from wildcoh.gf import FieldCtx
from wildcoh.laurent import InsufficientPrecisionError

import oracles

F3 = FieldCtx(3)


def unit_vector(win, exp):
    return [int(i == exp) for i in range(win.lo, win.a)]


def test_h1_closed_form_values():
    assert cohom.h1_closed_form(3, 2, 0) == 2
    assert cohom.h1_closed_form(3, 1, 0) == 1
    assert cohom.h1_closed_form(5, 3, 1) == 2
    for p in (2, 3, 5, 7):
        assert cohom.h1_closed_form(p, 1, 1) == 0  # weakly ramified vanishing
    with pytest.raises(ValueError):
        cohom.h1_closed_form(3, 6, 0)


def test_d_image_closed_form_values():
    assert cohom.d_image_closed_form(3, 2) == 1
    assert cohom.d_image_closed_form(2, 3) == 0
    for p in (2, 3, 5, 7):
        assert cohom.d_image_closed_form(p, 1) == 0


def test_h1_lattice_matches_closed_form_small_grid():
    for p, n in ((2, 3), (3, 2), (5, 3), (7, 2)):
        cov = cohom.cached_cover(p, n)
        for a in range(-2, n + 3):
            assert cohom.h1_lattice(cov, a).dim == cohom.h1_closed_form(p, n, a)


@pytest.mark.parametrize("p, n, a", [(3, 2, 0), (2, 3, 0), (5, 3, 1), (7, 6, 4), (13, 9, -2)])
def test_kernel_is_x_image_plus_monomial_classes(p, n, a):
    # ker N = x-image (+) span{t^i : a-n <= i < a, p does not divide i}
    classes = cohom.h1_lattice(cohom.cached_cover(p, n), a)
    win = classes.window
    monomials = [unit_vector(win, i) for i in range(a - n, a) if i % p]
    assert classes.dim == len(monomials) == cohom.h1_closed_form(p, n, a)
    both = linalg.RowEchelon(win.ctx, win.x_image.tolist() + monomials)
    assert both.rank == len(win.x_image) + len(monomials)
    kernel = linalg.nullspace(win.ctx, win.nil.tolist())
    assert linalg.RowEchelon(win.ctx, kernel).rows() == both.rows()


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
       n=st.integers(1, 20), data=st.data())
def test_each_residue_class_adds_its_monomial_to_h1(p, n, data):
    # class r of the window holds the exponents lo + r + nk; its kernel
    # beyond its x-powers is [t^i] for its one exponent i in [a-n, a-1]
    assume(n % p != 0)
    a = data.draw(st.integers(-3, n + 4), label="a")
    w = data.draw(st.sampled_from([n + p + 1, n + 2 * p + 1]), label="w")
    win = cohom.cached_cover(p, n).window(a, a - w)
    js = win.x_powers
    for r in range(n):
        block = win.nil[r::n, r::n].tolist()
        x_powers = sum((p * j - win.lo) % n == r for j in js)
        (i,) = [i for i in range(a - n, a) if (i - win.lo) % n == r]
        assert len(block) - oracles.rank(win.ctx, block) - x_powers == (i % p != 0)


def d_map(src, tgt, vec):
    # oracle: h -> t^(n+1) h' sends t^e to e t^(e+n), one coordinate at a time
    out = [0] * tgt.size
    for e, c in zip(range(src.lo, src.a), vec):
        if c:
            out[e + src.n - tgt.lo] = e * c % src.p
    return out


@pytest.mark.parametrize("p, n", [(3, 2), (5, 3), (7, 6), (13, 9)])
def test_d_sends_the_source_x_image_into_the_target_x_image(p, n):
    # the d-rank reads d(ker N) modulo the target x-image: d(x^j) = -j x^(j+n)
    cov = cohom.cached_cover(p, n)
    w = n + p + 1
    src, tgt = cov.window(0, -w), cov.window(n + 1, -1 - w)
    target = linalg.RowEchelon(cov.ctx, tgt.x_image.tolist())
    for j, vec in zip(src.x_powers, src.x_image.tolist()):
        image = d_map(src, tgt, vec)
        assert target.contains(image)
        # x^(j+n) leads at t^(p(j+n)): past the target's top it truncates to zero
        if j + n in tgt.x_powers:
            assert image == [-j * c % p for c in tgt.x_image[j + n - tgt.x_powers.start].tolist()]
        else:
            assert not any(image)


def test_basis_certificate_worked_cases():
    cert = cohom.h1_basis_certificate(cohom.cached_cover(3, 2), 3)
    assert cert.monomial_exponents == [1, 2]
    assert cert.vanishing == []
    # [t^0] dies against x^0 = 1 even though 0 is below the basis range
    classes = cohom.h1_lattice(cohom.cached_cover(3, 2), 3)
    win = classes.window
    assert linalg.RowEchelon(win.ctx, win.x_image.tolist()).contains(unit_vector(win, 0))

    cert2 = cohom.h1_basis_certificate(cohom.cached_cover(2, 3), 0)
    assert cert2.monomial_exponents == [-3, -1]
    assert cert2.vanishing == [(-2, -1)]

    cert3 = cohom.h1_basis_certificate(cohom.cached_cover(5, 3), 0)
    assert cert3.monomial_exponents == [-3, -2, -1]
    assert cert3.vanishing == []


def test_d_image_rank_worked_cases():
    assert cohom.d_image_rank(cohom.cached_cover(3, 2)) == 1
    assert cohom.d_image_rank(cohom.cached_cover(3, 1)) == 0
    # p = 5, n = 7: exponents -7..-1 minus p | i (-5) minus i = -n mod p (-7, -2)
    assert cohom.d_image_rank(cohom.cached_cover(5, 7)) == 4


def test_d_image_monomial_level_mapping():
    # h -> t^(n+1) h' sends t^-2 to -2 t^0 = 1 (dies against x^0) and
    # t^-1 to -t (survives) for p = 3, n = 2
    cov = cohom.cached_cover(3, 2)
    model2 = cohom._lattice_model(cov, 3, 6 + 2 + 2)
    win = model2.window
    ech = linalg.RowEchelon(win.ctx, win.x_image.tolist())
    assert ech.contains(unit_vector(win, 0))
    assert not ech.contains(unit_vector(win, 1))


def test_d_image_rank_builds_no_kernel(monkeypatch, fresh_covers):
    # both lattices are read through ranks of their residue blocks: no basis
    calls = []
    nullspace = linalg.nullspace

    def counting(ctx, a):
        calls.append(len(a))
        return nullspace(ctx, a)

    monkeypatch.setattr(linalg, "nullspace", counting)
    assert cohom.d_image_rank(cohom.cached_cover(3, 2)) == 1
    assert cohom.h1_lattice(cohom.cached_cover(3, 2), 0).dim == 2
    assert calls == []


def basis_route_d_rank(cov, w):
    """Oracle: d applied to a kernel basis of N_src, ranked modulo the target x-image."""
    src, tgt = cov.window(0, -w), cov.window(cov.n + 1, -1 - w)
    kernel = linalg.nullspace(cov.ctx, src.nil.tolist())
    x_image = tgt.x_image.tolist()
    image = [d_map(src, tgt, vec) for vec in kernel]
    if image:  # sigma-fixed: N_tgt sends every image to zero
        assert not any(map(any, linalg.mat_mul(cov.ctx, image, tgt.nil.T.tolist())))
    return oracles.rank(cov.ctx, x_image + image) - len(x_image)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
       n=st.integers(1, 20))
def test_d_rank_matches_the_kernel_basis_route(p, n):
    assume(n % p != 0)
    cov = cohom.cached_cover(p, n)
    for w in (n + p + 1, n + 2 * p + 1):
        assert cohom._d_rank_classes(cov, w).sum() == basis_route_d_rank(cov, w)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
       n=st.integers(1, 20), data=st.data())
def test_each_residue_class_adds_its_indicator_to_the_d_rank(p, n, data):
    # class r holds the one exponent i in [1-n, -1] with i = r mod n; d(t^i)
    # survives iff p divides neither i nor i + n, and class 0 has no such i
    assume(n % p != 0)
    w = data.draw(st.sampled_from([n + p + 1, n + 2 * p + 1]), label="w")
    shares = cohom._d_rank_classes(cohom.cached_cover(p, n), w)
    want = [0] * n
    for i in range(1 - n, 0):
        want[i % n] = int(i % p != 0 and (i + n) % p != 0)
    assert shares.tolist() == want


def test_window_size_precondition():
    cov = cohom.cached_cover(3, 2)
    with pytest.raises(ValueError):
        cohom.h1_lattice(cov, 0, w=3)
    with pytest.raises(ValueError):
        cohom.d_image_rank(cov, w=2)


@pytest.fixture
def fresh_covers():
    """A cold cover cache before and after a test that corrupts or counts window builds.

    A cover keeps its d-ranks: a shared cover would answer from them
    without building a window, and one that stored a rank from corrupted
    windows must not serve a later test.
    """
    cohom.cached_cover.cache_clear()
    yield
    cohom.cached_cover.cache_clear()


@pytest.fixture
def patch_x_image(monkeypatch, fresh_covers):
    """patch(corrupt) lets corrupt(window, rows) edit every window's x-image, read as a list of rows."""
    window = ascover.LocalCover.window

    def patch(corrupt):
        def corrupted(self, a, lo):
            win = window(self, a, lo)
            rows = win.x_image.tolist()
            corrupt(win, rows)
            win.x_image = np.array(rows, dtype=win.ctx.dtype).reshape(len(rows), win.size)
            return win

        monkeypatch.setattr(ascover.LocalCover, "window", corrupted)

    return patch


def test_x_image_raises_on_a_truncation_sigma_moves(patch_x_image):
    def perturb(win, rows):
        moved = int(np.flatnonzero(win.nil.any(axis=0))[0])  # N t^moved != 0
        rows[0][moved] = (rows[0][moved] + 1) % win.p

    patch_x_image(perturb)
    with pytest.raises(ascover.NormalFormError, match=r"^x\^-2 truncation is not sigma-fixed$"):
        cohom.h1_lattice(cohom.cached_cover(3, 2), 0)


@pytest.mark.parametrize("row", [lambda rows: rows[0], lambda rows: [0] * len(rows[0])],
                         ids=["repeated", "zero"])
def test_x_image_raises_on_dependent_truncations(patch_x_image, row):
    # a repeated row and a zero row are both sigma-fixed, and both dependent;
    # at a = 1 no truncation leads at the window's first column, as a zero row does
    def repeat(win, rows):
        rows[-1] = row(rows)

    patch_x_image(repeat)
    for run in (lambda cov: cohom.h1_lattice(cov, 1), cohom.d_image_rank):
        with pytest.raises(cohom.CertificateError,
                           match="^x-power truncations are not independent$"):
            run(cohom.cached_cover(3, 2))


def test_h1_raises_when_the_widened_window_disagrees(patch_x_image):
    # dropping an x-power only from the widened window adds a class there
    def drop(win, rows):
        if win.size == 9:
            rows.pop()

    patch_x_image(drop)
    with pytest.raises(cohom.StabilizationError,
                       match=r"^h1 window did not stabilize: dim 2 at W=6, 3 at W=9$"):
        cohom.h1_lattice(cohom.cached_cover(3, 2), 0, w=6)


def test_d_rank_raises_when_the_widened_window_disagrees(patch_x_image):
    # only the widened target swaps x^-1 for the fixed t^1 = -d(t^-1), which
    # stays in x^-1's class: d(t^-1) now dies there, and x^-1 is no image in
    # characteristic 3, since d(x^-3) = 3 x^-1
    def swap(win, rows):
        if win.a == 3 and win.size == 13:
            rows[-2] = unit_vector(win, 1)

    patch_x_image(swap)
    with pytest.raises(cohom.StabilizationError,
                       match=r"^d-image window did not stabilize: rank 1 at W=6, 0 at W=9$"):
        cohom.d_image_rank(cohom.cached_cover(3, 2))


def test_d_rank_raises_on_a_differential_image_sigma_moves(monkeypatch, fresh_covers):
    cov = cohom.cached_cover(5, 3)
    w = cov.n + cov.p + 1
    source, target = cov.window(0, -w), cov.window(cov.n + 1, -1 - w)
    x_support = source.x_image.any(axis=0)
    # a source exponent e off the source x-image whose image e t^(e+n) sigma moves
    e = next(e for e in range(-w, 0) if e % cov.p and not x_support[e + w]
             and target.nil[:, e + cov.n - target.lo].any())
    window = ascover.LocalCover.window

    def corrupted(self, a, lo):
        win = window(self, a, lo)
        if (a, lo) == (0, -w):
            win.nil[:, e - lo] = 0  # t^e joins ker N_src
        return win

    monkeypatch.setattr(ascover.LocalCover, "window", corrupted)
    with pytest.raises(ascover.NormalFormError,
                       match=r"^differential image is not sigma-fixed \(precision bug\)$"):
        cohom.d_image_rank(cov)


@pytest.mark.parametrize("where", ["image rows", "above them"])
def test_d_rank_raises_when_the_target_moves_a_differential_image(monkeypatch, fresh_covers, where):
    # N_tgt D = S N_src fails in one entry of N_tgt in the column of an image
    # e t^(e+n), off the target x-image, so that only the identity sees it:
    # a changed entry in the rows t^(f+n) of S N_src, or one in the rows
    # above them, where S N_src is zero
    cov = cohom.cached_cover(5, 3)
    w = cov.n + cov.p + 1
    target = cov.window(cov.n + 1, -1 - w)
    x_support = target.x_image.any(axis=0)
    col = next(e + cov.n - target.lo for e in range(-w, 0) if e % cov.p
               and not x_support[e + cov.n - target.lo] and target.nil[:, e + cov.n - target.lo].any())
    # the image rows start at t^(n - w), row n + 1; row col mod n above them is in col's class
    row = int(np.flatnonzero(target.nil[:, col])[-1]) if where == "image rows" else col % cov.n
    window = ascover.LocalCover.window

    def corrupted(self, a, lo):
        win = window(self, a, lo)
        if (a, lo) == (cov.n + 1, -1 - w):
            win.nil[row, col] = (win.nil[row, col] + 1) % cov.p
        return win

    monkeypatch.setattr(ascover.LocalCover, "window", corrupted)
    with pytest.raises(ascover.NormalFormError,
                       match=r"^differential image is not sigma-fixed \(precision bug\)$"):
        cohom.d_image_rank(cov)


def test_d_rank_refuses_an_x_power_outside_its_class(patch_x_image):
    # a fixed, independent target row in the wrong class must not be dropped
    def move(win, rows):
        if win.a == 3:
            rows[-2] = unit_vector(win, 2)

    patch_x_image(move)
    with pytest.raises(ascover.NormalFormError,
                       match="^lattice matrix links two exponent classes mod n$"):
        cohom.d_image_rank(cohom.cached_cover(3, 2))


def test_certificate_raises_on_a_monomial_in_the_x_image(patch_x_image):
    # x^1 replaced by the fixed top monomial t^2: [t^2] now dies in H^1
    def replace(win, rows):
        if len(rows) > 1:
            rows[-1] = unit_vector(win, win.a - 1)

    patch_x_image(replace)
    with pytest.raises(cohom.CertificateError,
                       match="^candidate monomial classes are not independent$"):
        cohom.h1_basis_certificate(cohom.cached_cover(3, 2), 3)


def test_certificate_raises_when_h1_miscounts(patch_x_image):
    def drop(win, rows):
        if len(rows) > 1:
            rows.pop()

    patch_x_image(drop)
    with pytest.raises(cohom.CertificateError,
                       match="^monomial classes span a space of dimension 2, "
                             "but H\\^1 has dimension 3$"):
        cohom.h1_basis_certificate(cohom.cached_cover(3, 2), 3)


def test_certificate_raises_when_an_x_power_misses_its_monomial(patch_x_image):
    # every truncation gains the fixed top monomial t^(a-1): the x-image and
    # the monomials span the same space, but x^0 no longer equals t^0
    def lift(win, rows):
        for row in rows:
            row[-1] = (row[-1] + 1) % win.p

    patch_x_image(lift)
    with pytest.raises(cohom.CertificateError,
                       match=r"^x\^0 does not reduce \[t\^0\]: truncations differ below t\^2$"):
        cohom.h1_basis_certificate(cohom.cached_cover(3, 2), 2)


@pytest.mark.parametrize("p, n", [(3, 2), (5, 3), (101, 7)])
def test_each_window_reads_one_binomial_table(monkeypatch, fresh_covers, p, n):
    # N and the x-image of a window come from one Lucas table: h1 builds two
    # windows, the d-rank four, and the certificate, whose [t^0] vanishes at
    # a = 1, reads only its h1 windows
    cov = cohom.cached_cover(p, n)
    calls = []
    binomials = ascover.LocalCover.binomials

    def counting(self, exps, count):
        calls.append(count)
        return binomials(self, exps, count)

    monkeypatch.setattr(ascover.LocalCover, "binomials", counting)
    counts = []
    for run in (lambda: cohom.h1_lattice(cov, 1), lambda: cohom.d_image_rank(cov),
                lambda: cohom.h1_basis_certificate(cov, 1)):
        calls.clear()
        run()
        counts.append(len(calls))
    assert counts == [2, 4, 2]


@pytest.fixture
def built_windows(monkeypatch):
    """The (a, lo) of every window built while the test runs, in order."""
    built = []
    window = ascover.LocalCover.window

    def counting(self, a, lo):
        built.append((a, lo))
        return window(self, a, lo)

    monkeypatch.setattr(ascover.LocalCover, "window", counting)
    return built


def test_d_rank_is_computed_once_per_cover_and_window(fresh_covers, built_windows):
    cov = cohom.cached_cover(3, 2)
    assert cohom.d_image_rank(cov) == 1
    assert len(built_windows) == 4  # source and target, at w and at w + p
    built_windows.clear()
    assert cohom.d_image_rank(cov) == 1
    assert cohom.d_image_rank(cov, w=6) == 1  # the default window n + p + 1
    assert built_windows == []
    # another window computes again and is kept beside the first
    assert cohom.d_image_rank(cov, w=7) == 1
    assert len(built_windows) == 4
    assert cov._d_ranks == {6: 1, 7: 1}


def test_a_raised_d_rank_stores_nothing(patch_x_image):
    # the widened-window swap of test_d_rank_raises_when_the_widened_window_disagrees
    def swap(win, rows):
        if win.a == 3 and win.size == 13:
            rows[-2] = unit_vector(win, 1)

    patch_x_image(swap)
    cov = cohom.cached_cover(3, 2)
    for _ in range(2):
        with pytest.raises(cohom.StabilizationError,
                           match=r"^d-image window did not stabilize: rank 1 at W=6, 0 at W=9$"):
            cohom.d_image_rank(cov)
    assert cov._d_ranks == {}


def test_a_cleared_cover_cache_computes_the_d_rank_again(fresh_covers, built_windows):
    first = cohom.cached_cover(5, 3)
    rank = cohom.d_image_rank(first)
    cohom.cached_cover.cache_clear()
    built_windows.clear()
    again = cohom.cached_cover(5, 3)
    assert again is not first and again._d_ranks == {}
    assert cohom.d_image_rank(again) == rank == cohom.d_image_closed_form(5, 3)
    assert len(built_windows) == 4


def test_equal_jumps_share_one_d_rank(monkeypatch, fresh_covers):
    # y^12 = f(x) with deg f = 12 in characteristic 5: twelve points of jump 1
    prof = profile.superelliptic(12, 12, 5)
    assert prof.jumps == (1,) * 12
    runs = []
    d_rank_classes = cohom._d_rank_classes

    def counting(cov, w):
        runs.append(w)
        return d_rank_classes(cov, w)

    monkeypatch.setattr(cohom, "_d_rank_classes", counting)
    assert profile.defect_by_linear_algebra(prof) == profile.defect(prof) == 0
    assert runs == [7, 12]  # w = n + p + 1, then w + p, once for all twelve points


def test_covers_compare_equal_with_filled_caches():
    # the sigma blocks and the d-ranks are caches: they take no part in ==
    a, b = ascover.build(3, 2, 40), ascover.build(3, 2, 40)
    assert a == b
    a.apply_sigma(a.x_t)
    b.apply_sigma(b.x_t)
    assert a == b
    assert cohom.d_image_rank(a) == 1
    assert a == b  # one cover holds a d-rank, the other none
    assert cohom.d_image_rank(b) == 1
    assert a == b
    assert a != ascover.build(3, 2, 41)


def test_periodic_cohomology_trivial_module():
    for p in (2, 3, 5, 7):
        mod = CyclicModule(ctx=FieldCtx(p), sigma=[[1]], q=p)
        assert [cohom.periodic_cohomology(mod, i) for i in (0, 1, 2)] == [1, 1, 1]


def test_periodic_cohomology_free_module():
    for p in (2, 3, 5, 7):
        ctx = FieldCtx(p)
        cycle = [[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)]
        mod = CyclicModule(ctx=ctx, sigma=cycle, q=p)
        assert cohom.periodic_cohomology(mod, 0) == 1
        assert cohom.periodic_cohomology(mod, 1) == 0
        assert cohom.periodic_cohomology(mod, 2) == 0


def explicit_norm(mod):
    # oracle: the norm 1 + sigma + ... + sigma^(q-1) as a sum of powers
    ctx = mod.ctx
    norm = oracles.zeros(mod.dim, mod.dim)
    power = oracles.identity(mod.dim)
    for _ in range(mod.q):
        norm = linalg.mat_add(ctx, norm, power)
        power = linalg.mat_mul(ctx, power, mod.sigma)
    return norm


@pytest.mark.parametrize("p, q", [(2, 2), (3, 3), (2, 4), (5, 5), (2, 8), (3, 9)])
def test_periodic_cohomology_against_the_explicit_norm(p, q):
    ctx = FieldCtx(p)
    rng = random.Random(100 * q + p)
    for _ in range(12):
        mod = modrep.random_cyclic_module(ctx, q, rng)
        dim = mod.dim
        aug = linalg.mat_sub(ctx, mod.sigma, oracles.identity(dim))
        norm = explicit_norm(mod)
        power = oracles.identity(dim)
        for _ in range(q - 1):
            power = linalg.mat_mul(ctx, power, aug)
        assert norm == power
        ker_aug = dim - oracles.rank(ctx, aug)
        want = [ker_aug, dim - oracles.rank(ctx, norm) - oracles.rank(ctx, aug),
                ker_aug - oracles.rank(ctx, norm)]
        assert [cohom.periodic_cohomology(mod, i) for i in (0, 1, 2)] == want


def test_periodic_cohomology_jordan_block():
    mod = CyclicModule(ctx=F3, sigma=[[1, 1], [0, 1]], q=3)
    assert cohom.periodic_cohomology(mod, 0) == 1
    assert cohom.periodic_cohomology(mod, 1) == 1
    # norm = (sigma - 1)^2 vanishes on a size-2 block, so H^2 = ker(sigma-1)
    assert cohom.periodic_cohomology(mod, 2) == 1
    with pytest.raises(ValueError):
        cohom.periodic_cohomology(mod, 3)


def test_cyclic_module_validation():
    with pytest.raises(ValueError):
        CyclicModule(ctx=F3, sigma=[[2]], q=3).validate()  # order 2, not 3
    with pytest.raises(ValueError, match="not a positive power of 3"):
        CyclicModule(ctx=F3, sigma=[[1]], q=6)  # refused at construction
    with pytest.raises(ValueError, match="not a positive power of 3"):
        CyclicModule(ctx=F3, sigma=[[1]], q=1)
    # N is nilpotent for J_4, but N^3 != 0: sigma has order 9, not 3
    j4 = [[1 if j - i in (0, 1) else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="does not have the declared order"):
        CyclicModule(ctx=F3, sigma=j4, q=3).validate()
    CyclicModule(ctx=F3, sigma=j4, q=9).validate()
    win = cohom.cached_cover(3, 2).window(0, -6)
    sigma = linalg.mat_add(win.ctx, oracles.identity(win.size), win.nil.tolist())
    CyclicModule(ctx=win.ctx, sigma=sigma, q=win.p).validate()


def test_closed_form_monotone_sanity():
    for p in (2, 3, 5, 7):
        for n in range(1, 10):
            if n % p == 0:
                continue
            for a in range(-3, n + 4):
                value = cohom.h1_closed_form(p, n, a)
                assert 0 <= value <= n


def test_h1_below_recommended_precision_raises_or_is_right():
    # every precision build accepts, up to the recommended one, on the
    # acceptance grid's jumps n <= 5: a shortfall may raise, never miscount
    counts = {"right": 0, "raised": 0}
    for p, n in acceptance._grid():
        if n > 5:
            continue
        for prec in range(n * p + p + 1, ascover.recommended_precision(p, n) + 1):
            cov = ascover.build(p, n, prec)
            for a in range(-2, n + 3):
                try:
                    dim = cohom.h1_lattice(cov, a).dim
                except (InsufficientPrecisionError, cohom.StabilizationError):
                    counts["raised"] += 1
                    continue
                assert dim == cohom.h1_closed_form(p, n, a), (p, n, prec, a)
                counts["right"] += 1
    # the lowest precisions for n = 1 cannot hold the widened window
    assert counts["raised"] > 0 and counts["right"] > 10 * counts["raised"]


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
       n=st.integers(1, 20), data=st.data())
def test_lattice_matches_closed_forms_beyond_the_grid(p, n, data):
    assume(n % p != 0)
    cov = cohom.cached_cover(p, n)
    a = data.draw(st.integers(-3, n + 4), label="a")
    assert cohom.h1_lattice(cov, a).dim == cohom.h1_closed_form(p, n, a)
    assert cohom.d_image_rank(cov) == cohom.d_image_closed_form(p, n)


def test_cover_cache_is_bounded():
    # the window is user input: 72 distinct ones must not grow the cache past 64
    cache = cohom.cached_cover
    for w in range(1, 73):
        cache(3, 1, w)
    info = cache.cache_info()
    assert info.maxsize == 64
    assert info.currsize <= info.maxsize
    cache.cache_clear()
