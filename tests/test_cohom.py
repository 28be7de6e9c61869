"""Group cohomology: closed forms, the lattice model, the differential map."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildcoh import acceptance, ascover, cohom, linalg, profile
from wildcoh.laurent import InsufficientPrecisionError

import oracles


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


@pytest.mark.parametrize("p, n", [(3, -2), (3, -1), (3, 0), (3, 6), (4, 1), (1, 1), (9, 2)])
def test_closed_forms_refuse_what_a_cover_refuses(p, n):
    # a nonpositive or non-coprime jump, or a composite p, has no cover, so
    # the closed forms give it no number (d_image_closed_form(3, -2) was -1)
    with pytest.raises(ValueError) as refused:
        ascover.LocalCover(p, n, 1000)
    message = f"^{re.escape(str(refused.value))}$"
    with pytest.raises(ValueError, match=message):
        cohom.h1_closed_form(p, n, 0)
    with pytest.raises(ValueError, match=message):
        cohom.d_image_closed_form(p, n)


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
    model2, _ = cohom._lattice_models(cov, 3, 6 + 2 + 2)
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
    w = n + p + 1
    # one source and one target of width w + p give the shares at both widths
    for shares, width in zip(cohom._d_rank_classes(cov, w), (w, w + p)):
        assert shares.sum() == basis_route_d_rank(cov, width)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31, 101])
def test_one_widened_window_holds_the_narrow_one(p):
    # for every n <= 20 prime to p, a in [-3, n + 4] and both widths w, the
    # trailing block of the window of width w + p is the window of width w,
    # and one elimination of the wider class blocks ranks both
    for n in range(1, 21):
        if n % p == 0:
            continue
        cov = cohom.cached_cover(p, n)
        least = n + p + 1
        for w in (least, least + p):
            for a in range(-3, n + 5):
                wide, fresh = cov.window(a, a - w - p), cov.window(a, a - w)
                narrow = wide.trailing(a - w)
                assert (narrow.a, narrow.lo) == (fresh.a, fresh.lo)
                assert np.array_equal(narrow.nil, fresh.nil)
                assert np.array_equal(narrow.x_image, fresh.x_image)
                narrow_ranks, _ = cohom._class_ranks(wide, a - w)
                # block r of the fresh window holds the exponents of block r + p of the wide one
                assert (narrow_ranks[(np.arange(n) + p) % n].tolist()
                        == linalg.ranks(cov.ctx, fresh.class_stack()))
        for shares, width in zip(cohom._d_rank_classes(cov, least), (least, least + p)):
            assert shares.sum() == basis_route_d_rank(cov, width)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
       n=st.integers(1, 20))
def test_each_residue_class_adds_its_indicator_to_the_d_rank(p, n):
    # class r holds the one exponent i in [1-n, -1] with i = r mod n; d(t^i)
    # survives iff p divides neither i nor i + n, and class 0 has no such i
    assume(n % p != 0)
    want = [0] * n
    for i in range(1 - n, 0):
        want[i % n] = int(i % p != 0 and (i + n) % p != 0)
    # the shares at widths n + p + 1 and n + 2p + 1
    for shares in cohom._d_rank_classes(cohom.cached_cover(p, n), n + p + 1):
        assert shares.tolist() == want


def test_window_size_precondition():
    cov = cohom.cached_cover(3, 2)
    with pytest.raises(ValueError):
        cohom.h1_lattice(cov, 0, w=3)


@pytest.fixture
def fresh_covers():
    """A cold cover cache before and after a test that corrupts or counts window builds.

    A cover keeps its d-rank: a shared cover would answer from it
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
    # x^-2 is the first x-power of the window at W = 6, and the second of
    # the widened one, the only window built
    def perturb(win, rows):
        moved = int(np.flatnonzero(win.nil.any(axis=0))[0])  # N t^moved != 0
        row = rows[win.x_powers.index(-2)]
        row[moved] = (row[moved] + 1) % win.p

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


def test_h1_raises_when_the_widened_window_disagrees(monkeypatch, fresh_covers):
    # t^-8 lies in the widened window [-9, 0) alone, off the support of every
    # x-power: with its column of N zeroed it joins ker N and adds a class
    # there, and the window at W = 6, the trailing block, keeps its own
    window = ascover.LocalCover.window

    def corrupted(self, a, lo):
        win = window(self, a, lo)
        win.nil[:, -8 - lo] = 0
        return win

    monkeypatch.setattr(ascover.LocalCover, "window", corrupted)
    with pytest.raises(cohom.StabilizationError,
                       match=r"^h1 window did not stabilize: dim 2 at W=6, 3 at W=9$"):
        cohom.h1_lattice(cohom.cached_cover(3, 2), 0, w=6)


def swap_widened_target(win, rows):
    # x^-3 is in the widened target [-10, 3) alone; the fixed t^1 = -d(t^-1)
    # takes its place and stays in its class mod 2, so d(t^-1) dies there
    # and not in the target at W = 6, the trailing block
    if win.a == 3:
        assert win.x_powers.start == -3 and win.lo == -10
        rows[0] = unit_vector(win, 1)


def test_d_rank_raises_when_the_widened_window_disagrees(patch_x_image):
    patch_x_image(swap_widened_target)
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
        if (a, lo) == (0, -w - cov.p):  # the widened source, the only one built
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
        # the widened target, the only one built: the target at W = w is
        # its trailing block, p rows and columns in
        if (a, lo) == (cov.n + 1, -1 - w - cov.p):
            at = row + cov.p, col + cov.p
            win.nil[at] = (win.nil[at] + 1) % cov.p
        return win

    monkeypatch.setattr(ascover.LocalCover, "window", corrupted)
    with pytest.raises(ascover.NormalFormError,
                       match=r"^differential image is not sigma-fixed \(precision bug\)$"):
        cohom.d_image_rank(cov)


def test_d_rank_raises_when_the_source_moves_a_differential_image(monkeypatch, fresh_covers):
    # one entry (t^f, t^e) of N_src changed inside the block of the source
    # at W = w, in e's class below the diagonal and off the source x-image,
    # with p not dividing f: the identity, checked on the widened pair
    # alone, must still see it
    cov = cohom.cached_cover(5, 3)
    w = cov.n + cov.p + 1
    x_support = cov.window(0, -w).x_image.any(axis=0)
    f, e = next((f, e) for e in range(-w, 0) for f in range(e + cov.n, 0, cov.n)
                if f % cov.p and not x_support[e + w])
    window = ascover.LocalCover.window

    def corrupted(self, a, lo):
        win = window(self, a, lo)
        if (a, lo) == (0, -w - cov.p):  # the widened source, the only one built
            win.nil[f - lo, e - lo] = (win.nil[f - lo, e - lo] + 1) % cov.p
        return win

    monkeypatch.setattr(ascover.LocalCover, "window", corrupted)
    with pytest.raises(ascover.NormalFormError,
                       match=r"^differential image is not sigma-fixed \(precision bug\)$"):
        cohom.d_image_rank(cov)


def test_d_rank_checks_the_differential_once(monkeypatch, fresh_covers):
    # N_tgt D = S N_src is checked on the widened source and target alone:
    # the pair at W = w is their trailing blocks
    calls = []
    check = cohom._check_d_commutes

    def counting(src, tgt):
        calls.append(((src.a, src.lo), (tgt.a, tgt.lo)))
        return check(src, tgt)

    monkeypatch.setattr(cohom, "_check_d_commutes", counting)
    for p, n in ((3, 2), (5, 3), (101, 7)):
        cov = cohom.cached_cover(p, n)
        w = n + p + 1
        for _ in range(2):  # the second call reads the stored rank
            cohom.d_image_rank(cov)
        assert calls == [((0, -w - p), (n + 1, -1 - w - p))]
        calls.clear()


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
    # N and the x-image of a window come from one Lucas table: h1 builds one
    # window, the widened one, the d-rank a widened source and target, and
    # the certificate, whose [t^0] vanishes at a = 1, reads only its h1 window
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
    assert counts == [1, 2, 1]


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


def test_d_rank_is_computed_once_per_cover(fresh_covers, built_windows):
    cov = cohom.cached_cover(3, 2)
    assert cov._d_rank is None
    assert cohom.d_image_rank(cov) == 1
    assert len(built_windows) == 2  # source and target of width w + p; w is their trailing block
    built_windows.clear()
    assert cohom.d_image_rank(cov) == 1
    assert built_windows == []
    assert cov._d_rank == 1


def test_a_raised_d_rank_stores_nothing(patch_x_image):
    patch_x_image(swap_widened_target)
    cov = cohom.cached_cover(3, 2)
    for _ in range(2):
        with pytest.raises(cohom.StabilizationError,
                           match=r"^d-image window did not stabilize: rank 1 at W=6, 0 at W=9$"):
            cohom.d_image_rank(cov)
    assert cov._d_rank is None


def test_a_cleared_cover_cache_computes_the_d_rank_again(fresh_covers, built_windows):
    first = cohom.cached_cover(5, 3)
    rank = cohom.d_image_rank(first)
    cohom.cached_cover.cache_clear()
    built_windows.clear()
    again = cohom.cached_cover(5, 3)
    assert again is not first and again._d_rank is None
    assert cohom.d_image_rank(again) == rank == cohom.d_image_closed_form(5, 3)
    assert len(built_windows) == 2


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
    assert runs == [7]  # w = n + p + 1, with w + p, once for all twelve points


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
    # (p, n) come from sweep's ranges: 72 distinct pairs must not grow the cache past 64
    cache = cohom.cached_cover
    jumps = [n for n in range(1, 109) if n % 3 != 0]
    assert len(jumps) == 72
    for n in jumps:
        cache(3, n)
    info = cache.cache_info()
    assert info.maxsize == 64
    assert info.currsize <= info.maxsize
    cache.cache_clear()
