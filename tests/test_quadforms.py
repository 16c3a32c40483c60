import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topinv import catalog, factoring, zlinalg
from topinv import quadforms as qf


def F(x):
    return Fraction(x)


def test_constructor_validation():
    with pytest.raises(qf.FormError, match="square"):
        qf.QuadraticForm([[1, 0]])
    with pytest.raises(qf.FormError, match="symmetric"):
        qf.QuadraticForm([[1, 2], [3, 1]])
    with pytest.raises(qf.FormError, match="singular"):
        qf.QuadraticForm([[1, 1], [1, 1]])
    with pytest.raises(qf.FormError, match="singular"):
        qf.QuadraticForm([[0, 0], [0, 1]])
    # only int and Fraction entries are exact: Fraction would take 0.1's
    # binary value, "1/2"'s text, and expand "1e5000" to 16,610 bits
    for entry in (0.1, 1.0, "1/2", "1e5000", Decimal("0.1"), Decimal(2)):
        for rows in ([[entry]], [[1, entry], [entry, 1]]):
            with pytest.raises(qf.FormError, match=type(entry).__name__) as e:
                qf.QuadraticForm(rows)
            assert "\n" not in str(e.value)
    half = Fraction(1, 2)
    f = qf.QuadraticForm([[True, half], [half, Fraction(4, 2)]])
    assert f.gram == ((1, half), (half, 2)) and type(f.gram[1][1]) is int


def test_repr_of_a_determinant_past_the_digit_limit():
    # 3^18000 has 8,589 digits, past str's default limit of 4,300
    F = qf.QuadraticForm([[3**9000, 0], [0, 3**9000]])
    assert repr(F) == "QuadraticForm(dim=2, det=<8589 digits>)"
    G = qf.QuadraticForm([[Fraction(1, 3**9100), 0], [0, 5]])
    assert repr(G) == "QuadraticForm(dim=2, det=5/<4342 digits>)"
    # the count is exact at each power of ten, where a float log10 reads
    # 10^k - 1 as k + 1 digits
    for k in (4301, 5000, 10000):
        for x, digits in ((10**k - 1, k), (10**k, k + 1)):
            assert repr(qf.QuadraticForm([[x]])) == (
                f"QuadraticForm(dim=1, det=<{digits} digits>)")
            assert repr(qf.QuadraticForm([[Fraction(-1, x)]])) == (
                f"QuadraticForm(dim=1, det=-1/<{digits} digits>)")
    assert repr(qf.QuadraticForm([[2, 1], [1, 2]])) == (
        "QuadraticForm(dim=2, det=3)")


def test_dimension_zero_form():
    f = qf.QuadraticForm([])
    assert f.dim == 0
    assert f.det == 1
    assert qf.real_signature(f) == 0
    assert qf.oddity(f) == 0
    assert qf.local_invariants(f, 3).p_excess == 0
    assert qf.reciprocity_residual(f) == 0
    assert qf.rationally_equivalent(f, qf.QuadraticForm([]))


def test_diagonalization_congruent_and_exact():
    # hyperbolic plane has no nonzero diagonal entry to pivot on
    h = qf.QuadraticForm(catalog.hyperbolic_gram())
    d = h.diagonal
    assert len(d) == 2
    assert d[0] * d[1] < 0
    assert h.det == zlinalg.det(catalog.hyperbolic_gram()) == -1
    assert qf.real_signature(h) == 0


def test_p_split():
    assert qf.p_split(F(12), 2) == (2, F(3))
    assert qf.p_split(F(12), 3) == (1, F(4))
    assert qf.p_split(Fraction(5, 8), 2) == (-3, F(5))
    assert qf.p_split(F(-18), 3) == (2, F(-2))
    assert qf.p_split(F(7), 5) == (0, F(7))
    with pytest.raises(qf.FormError):
        qf.p_split(0, 2)


def test_antisquare_table():
    # 2-adic: odd valuation and unit = +-3 mod 8
    assert not qf.is_antisquare(F(2), 2)      # unit 1 mod 8
    assert qf.is_antisquare(F(6), 2)          # unit 3 mod 8
    assert qf.is_antisquare(F(10), 2)         # unit 5 mod 8
    assert not qf.is_antisquare(F(14), 2)     # unit 7 mod 8
    assert not qf.is_antisquare(F(3), 2)      # even (zero) valuation
    # odd p: odd valuation and non-residue unit
    assert not qf.is_antisquare(F(3), 3)      # unit 1 is a residue
    assert qf.is_antisquare(F(6), 3)          # unit 2 is a non-residue mod 3
    assert qf.is_antisquare(Fraction(2, 3), 3)  # negative valuation counts
    assert not qf.is_antisquare(F(5), 3)


def test_worked_example_diag_1_3():
    f = qf.QuadraticForm([[1, 0], [0, 3]])
    assert qf.oddity(f) == 4
    li = qf.local_invariants(f, 3)
    assert li.p_signature == 1 + 3
    assert li.p_excess == 2
    assert li.antisquare_count == 0
    assert qf.local_invariants(f, 5).p_excess == 0
    assert qf.reciprocity_residual(f) == 0
    assert qf.signature_mod8_from_local(f) == qf.real_signature(f) % 8 == 2


def test_odd_squares_handle_negative_valuations():
    f = qf.QuadraticForm([[Fraction(1, 3), 0], [0, 3]])
    li = qf.local_invariants(f, 3)
    # both entries have odd valuation with unit 1: each contributes 3 mod 8
    assert li.p_signature == (3 + 3) % 8
    assert qf.reciprocity_residual(f) == 0


def test_e8_equivalent_to_identity():
    e8 = qf.QuadraticForm(catalog.e8_gram())
    i8 = qf.QuadraticForm(catalog.identity_gram(8))
    assert qf.real_signature(e8) == 8
    assert qf.is_even(e8)
    assert not qf.is_even(i8)
    res = qf.rationally_equivalent(e8, i8)
    assert res.equivalent and res.failing is None


def test_hyperbolic_plane_invariants():
    h = qf.QuadraticForm(catalog.hyperbolic_gram())
    assert qf.real_signature(h) == 0
    assert qf.is_even(h)
    assert qf.oddity(h) == 0
    assert qf.signature_mod8_from_local(h) == 0
    d11 = qf.QuadraticForm([[1, 0], [0, -1]])
    res = qf.rationally_equivalent(h, d11)
    assert res.equivalent


def test_equivalence_failing_order():
    i2 = qf.QuadraticForm([[1, 0], [0, 1]])
    d1m1 = qf.QuadraticForm([[1, 0], [0, -1]])
    res = qf.rationally_equivalent(i2, d1m1)
    assert not res
    assert res.failing == "signature"
    res = qf.rationally_equivalent(i2, qf.QuadraticForm([[1]]))
    assert res.failing == "dimension"
    # <1,1> vs <1,17>: every listed invariant agrees except the square class
    a = qf.QuadraticForm([[1, 0], [0, 1]])
    b = qf.QuadraticForm([[1, 0], [0, 17]])
    res = qf.rationally_equivalent(a, b)
    assert res.failing == "determinant"
    # <1,1> vs <1,3>: oddity and 3-excess both differ; oddity is reported
    c = qf.QuadraticForm([[1, 0], [0, 3]])
    res = qf.rationally_equivalent(a, c)
    assert res.failing == "oddity"


def test_excess_only_failure():
    # <3,5> vs <1,15>: dim, signature, oddity all agree, Q_3 separates them
    a = qf.QuadraticForm([[3, 0], [0, 5]])
    b = qf.QuadraticForm([[1, 0], [0, 15]])
    assert qf.oddity(a) == qf.oddity(b) == 0
    res = qf.rationally_equivalent(a, b)
    assert not res
    assert res.failing == "p-excess at 3"


def random_form(rng, max_dim=6, max_prime=13, allow_fractions=False):
    primes = [p for p in (2, 3, 5, 7, 11, 13) if p <= max_prime]
    n = rng.randint(1, max_dim)
    diag = []
    for _ in range(n):
        v = 1
        for p in primes:
            v *= p ** rng.randint(0, 2)
        if allow_fractions and rng.random() < 0.3:
            v = Fraction(1, v)
        if rng.random() < 0.5:
            v = -v
        diag.append(v)
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return qf.QuadraticForm(rows)


def test_reciprocity_many_random_forms(rng):
    for _ in range(250):
        f = random_form(rng, allow_fractions=True)
        assert qf.reciprocity_residual(f) == 0


def test_signature_mod8_from_local_many(rng):
    for _ in range(250):
        f = random_form(rng, allow_fractions=True)
        assert qf.signature_mod8_from_local(f) == qf.real_signature(f) % 8


def test_irrelevant_prime_has_zero_excess(rng):
    for _ in range(50):
        f = random_form(rng, max_prime=7)
        for p in (11, 13, 17):
            li = qf.local_invariants(f, p)
            assert li.p_excess == 0
            assert li.antisquare_count == 0


def test_equivalence_is_an_equivalence_relation(rng):
    forms = [random_form(rng, max_dim=4, max_prime=5) for _ in range(12)]
    for f in forms:
        assert qf.rationally_equivalent(f, f)
    for f in forms:
        for g in forms:
            fg = qf.rationally_equivalent(f, g)
            gf = qf.rationally_equivalent(g, f)
            assert fg.equivalent == gf.equivalent
    for f in forms:
        for g in forms:
            for h in forms:
                if qf.rationally_equivalent(f, g) and \
                        qf.rationally_equivalent(g, h):
                    assert qf.rationally_equivalent(f, h)


def random_unimodular(rng, n):
    import copy
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def sparse_unimodular(rng, n):
    """Unit upper triangular with one +-1 above the diagonal in each column
    past the first, rows and columns permuted alike: a congruent copy of a
    block form then keeps its diagonal entries short."""
    perm = rng.sample(range(n), n)
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        m[perm[j]][perm[j]] = 1
        if j:
            m[perm[rng.randrange(j)]][perm[j]] = rng.choice((-1, 1))
    return m


def congruent_gram(rng, gram, unimodular=random_unimodular):
    # S G S^T, as two products
    s = unimodular(rng, len(gram))
    sg = [[sum(x * y for x, y in zip(row, col)) for col in zip(*gram)]
          for row in s]
    return [[sum(x * y for x, y in zip(row, srow)) for srow in s]
            for row in sg]


def block_diagonal(block, k):
    m = len(block)
    return [[block[i % m][j % m] if i // m == j // m else 0
             for j in range(m * k)] for i in range(m * k)]


def congruent_form(rng, f):
    return qf.QuadraticForm(congruent_gram(rng, f.gram))


def test_det_matches_bareiss(rng):
    # QuadraticForm.det is the product of the fraction-free Bareiss
    # diagonal; zlinalg.det is read off the Smith elimination, diagonalize,
    # an independent route to the same number
    e8 = catalog.e8_gram()
    for k in (1, 2, 3):
        g = congruent_gram(rng, block_diagonal(e8, k))
        assert qf.QuadraticForm(g).det == zlinalg.det(g) == 1
    singular = 0
    for _ in range(80):
        n = rng.randint(1, 7)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        d = zlinalg.det(g)
        if d == 0:
            singular += 1
            with pytest.raises(qf.FormError, match="singular"):
                qf.QuadraticForm(g)
        else:
            f = qf.QuadraticForm(g)
            assert isinstance(f.det, Fraction)
            assert f.det == d
    assert singular


def reference_diagonal(gram):
    """Symmetric congruence diagonalization in Fraction arithmetic, with
    the pivot rule of QuadraticForm: first nonzero diagonal entry, else
    x_k -> x_k + x_c for the first nonzero off-diagonal (r, c)."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    diag = []
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                off = next(((r, c) for r in range(k, n)
                            for c in range(r + 1, n) if a[r][c] != 0), None)
                if off is None:
                    raise qf.FormError("singular form")
                r, c = off
                if r != k:
                    swap(k, r)
                a[k] = [x + y for x, y in zip(a[k], a[c])]
                for row in a:
                    row[k] += row[c]
        d = a[k][k]
        diag.append(d)
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                for row in a:
                    row[i] -= f * row[k]
    return tuple(diag)


def assert_same_diagonal(gram):
    try:
        want = reference_diagonal(gram)
    except qf.FormError as e:
        with pytest.raises(qf.FormError, match=str(e)):
            qf.QuadraticForm(gram)
        return False
    got = qf.QuadraticForm(gram).diagonal
    assert all(isinstance(d, Fraction) for d in got)
    assert got == want
    return True


def random_symmetric(rng, n, zero_diagonal=False, density=1):
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if (i == j and zero_diagonal
                    or density < 1 and rng.random() >= density):
                continue
            g[i][j] = g[j][i] = Fraction(rng.randint(-4, 4),
                                         rng.choice((1, 1, 2, 3, 4, 9)))
    return g


def test_diagonal_matches_fraction_reference_random(rng):
    nonsingular = singular = 0
    for t in range(400):
        g = random_symmetric(rng, rng.randint(1, 7), zero_diagonal=t % 2)
        if assert_same_diagonal(g):
            nonsingular += 1
        else:
            singular += 1
    assert nonsingular > 100 and singular > 10
    # sparse ones, where steps skip most rows
    nonsingular = 0
    for _ in range(150):
        g = random_symmetric(rng, rng.randint(2, 14), density=0.3)
        nonsingular += assert_same_diagonal(g)
    assert nonsingular > 30


def test_diagonal_matches_fraction_reference_zero_diagonal(rng):
    # hyperbolic blocks have no diagonal pivot: every step goes through
    # x_k -> x_k + x_c
    h = catalog.hyperbolic_gram()
    for k in (1, 2, 3, 5):
        g = block_diagonal(h, k)
        assert assert_same_diagonal(g)
        assert assert_same_diagonal([[Fraction(x, 3) for x in row]
                                     for row in congruent_gram(rng, g)])
    assert assert_same_diagonal([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert not assert_same_diagonal([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert not assert_same_diagonal([[0, 0], [0, 0]])


def test_diagonal_matches_fraction_reference_e8_copies(rng):
    e8 = catalog.e8_gram()
    for k in (1, 2, 4, 8):
        assert assert_same_diagonal(congruent_gram(rng, block_diagonal(e8, k)))


def test_diagonal_matches_fraction_reference_sparse_copies(rng):
    # a step skips each row its pivot row has a 0 in, and brings it up to
    # date when a later pivot row reaches it: in a sparse congruent copy
    # most rows are skipped for many steps at a time, and in a block-
    # diagonal form every row outside the pivot's block is skipped
    e8 = catalog.e8_gram()
    for k in (1, 2, 4, 8):
        assert assert_same_diagonal(
            congruent_gram(rng, block_diagonal(e8, k), sparse_unimodular))
        assert assert_same_diagonal(block_diagonal(e8, k))
    for n in (8, 32, 64):
        assert assert_same_diagonal(
            congruent_gram(rng, block_diagonal([[1]], n), sparse_unimodular))


def test_diagonal_matches_fraction_reference_zero_pivot_after_steps(rng):
    # E8 + H^k: the hyperbolic part has no diagonal pivot, so the swap and
    # x_k -> x_k + x_c run only after 8 Bareiss steps, which keep the upper
    # triangle alone; their lower part must be rebuilt first.  H^k comes
    # as k planes, and as [[0, B], [B^T, 0]] with B unimodular and dense,
    # where every later zero pivot meets a dense trailing block
    e8, h = catalog.e8_gram(), catalog.hyperbolic_gram()
    for k in (4, 8, 12):
        n = 8 + 2 * k
        b = random_unimodular(rng, k)
        planes, dense = ([[0] * n for _ in range(n)] for _ in range(2))
        for i in range(8):
            planes[i][:8] = dense[i][:8] = e8[i]
        for i in range(2 * k):
            planes[8 + i][8 + (i ^ 1)] = h[i % 2][1 - i % 2]
        for i in range(k):
            for j in range(k):
                dense[8 + i][8 + k + j] = dense[8 + k + j][8 + i] = b[i][j]
        for g in (planes, dense):
            assert assert_same_diagonal(g)
            assert assert_same_diagonal(congruent_gram(rng, g))
        # a sparse copy keeps some rows skipped up to the zero pivot, so
        # they must be brought up to date before the lower part is rebuilt
        assert assert_same_diagonal(
            congruent_gram(rng, planes, sparse_unimodular))


def odd_primes_to(n):
    return [p for p in range(3, n + 1, 2)
            if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]


def test_local_invariants_match_per_entry_definition(rng):
    # local_invariants splits each entry once, and at odd p only the
    # entries p divides; is_antisquare and p_split are the per-entry
    # definitions it must agree with, at the relevant primes and at odd
    # primes that divide no entry
    e8_4 = block_diagonal(catalog.e8_gram(), 4)
    forms = [congruent_form(rng, random_form(rng, max_dim=5,
                                             allow_fractions=True))
             for _ in range(60)]
    forms += [qf.QuadraticForm(congruent_gram(rng, e8_4, sparse_unimodular))
              for _ in range(3)]
    # primes that trial division does not find: c = 1009 * 1013 is a
    # cofactor past 10^6 that prime_factors splits, shared by two entries
    # (c and c/7) and met again in 3c and -5c; 1000003 is a prime cofactor
    # past 10^6; in 7 * 1009^2 * 1013 and 11 * 1000003 * 1009 the large
    # primes were found in an earlier part
    c, big = 1009 * 1013, 1000003
    for diag in ([c, Fraction(c, 7), 3 * c, -5 * c],
                 [c, 7 * 1009**2 * 1013, Fraction(-2, 9 * big),
                  11 * big * 1009],
                 [Fraction(big, 3 * c), Fraction(-c, 5 * big), 2]):
        f = qf.QuadraticForm([[diag[i] if i == j else 0
                               for j in range(len(diag))]
                              for i in range(len(diag))])
        assert {1009, 1013} <= set(qf.relevant_odd_primes(f))
        forms += [f, qf.QuadraticForm(congruent_gram(rng, f.gram,
                                                     sparse_unimodular))]
    for f in forms:
        relevant = qf.relevant_odd_primes(f)
        others = [p for p in odd_primes_to(97) if p not in relevant]
        for p in [2, *relevant, *others]:
            m = sum(qf.is_antisquare(d, p) for d in f.diagonal)
            total = 4 * m
            for d in f.diagonal:
                a, b = qf.p_split(d, p)
                if p == 2:
                    total += b.numerator * pow(b.denominator, -1, 8) % 8
                else:
                    total += pow(p, a % 2, 8)
            li = qf.local_invariants(f, p)
            assert (li.antisquare_count, li.p_signature) == (m, total % 8)
            assert qf.local_invariants(f, p) is li


def test_local_invariants_raise_the_budget_error_at_once(monkeypatch):
    # at odd p, local_invariants reads the entries p divides from the
    # factoring of the diagonal, so a cofactor past the splitting bound
    # refuses the form before any splitting step, even at a prime (3)
    # that divides another entry
    import sympy
    a = sympy.nextprime(10**50)
    b = sympy.nextprime(a)
    assert a * b >= factoring._SPLIT_BOUND

    def no_step(*args):
        raise AssertionError("a splitting step ran")
    monkeypatch.setattr(factoring, "_brent", no_step)
    monkeypatch.setattr(factoring, "_ecm", no_step)
    f = qf.QuadraticForm([[int(a * b), 0], [0, 3]])
    for _ in range(2):
        with pytest.raises(qf.FormError, match="more than 100 digits"):
            qf.local_invariants(f, 3)
    assert qf.local_invariants(f, 2).p_signature == (a * b + 3) % 8


def test_relevant_odd_primes_factors_each_part_once(rng, monkeypatch):
    from sympy import factorint
    # the splitter's calls from an empty cache: no earlier test's results
    factoring.prime_factors.cache_clear()
    seen = []
    find_factor = factoring._find_factor
    monkeypatch.setattr(factoring, "_find_factor",
                        lambda n: seen.append(n) or find_factor(n))
    for _ in range(30):
        f = congruent_form(rng, random_form(rng, allow_fractions=True))
        seen.clear()
        primes = qf.relevant_odd_primes(f)
        assert qf.relevant_odd_primes(f) == primes
        assert qf.reciprocity_residual(f) == 0
        assert len(seen) == len(set(seen))
        # the primes of every odd part, each part factored in full
        want = {p for d in f.diagonal
                for part in (abs(d.numerator), d.denominator)
                for p in factorint(part) if p > 2}
        assert primes == sorted(want)


def odd_primes_by_sympy(f):
    import sympy
    return sorted({p for d in f.diagonal
                   for part in (abs(d.numerator), d.denominator)
                   for p in sympy.factorint(part) if p > 2})


# around the trial-division bound: 997 is the largest prime below 1000,
# 1009 the smallest above it, 999983 the largest prime below 10**6, and
# 1009**2 and 1009 * 1013 are past 10**6 with no prime factor below 1000,
# so they reach the splitter
BOUNDARY = [1, 2**10, 997, 1009, 997**2, 997 * 1009, 1009**2, 999983,
            3 * 999983, 1009 * 1013, 3**5 * 5**3]


def test_relevant_odd_primes_match_sympy_at_the_trial_bound(rng):
    values = BOUNDARY + [rng.randint(2, 10**15) for _ in range(60)]
    for v in values:
        for f in (qf.QuadraticForm([[v]]), qf.QuadraticForm([[-v]]),
                  qf.QuadraticForm([[Fraction(1, v)]]),
                  qf.QuadraticForm([[Fraction(-7, v)]])):
            assert qf.relevant_odd_primes(f) == odd_primes_by_sympy(f), v
    # many values in one form, so the parts share primes
    for k in range(0, len(values), 5):
        vs = values[k:k + 6]
        diag = [Fraction(a, b) for a, b in zip(vs, vs[1:] + vs[:1])]
        f = qf.QuadraticForm([[diag[i] if i == j else 0
                               for j in range(len(diag))]
                              for i in range(len(diag))])
        assert qf.relevant_odd_primes(f) == odd_primes_by_sympy(f), vs


def test_congruence_invariance_of_local_data(rng):
    for _ in range(40):
        f = random_form(rng, max_dim=4, max_prime=7)
        g = congruent_form(rng, f)
        assert qf.real_signature(f) == qf.real_signature(g)
        assert qf.oddity(f) == qf.oddity(g)
        for p in set(qf.relevant_odd_primes(f)) | set(qf.relevant_odd_primes(g)):
            assert qf.local_invariants(f, p).p_excess == \
                qf.local_invariants(g, p).p_excess
        assert qf.rationally_equivalent(f, g)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(
    [1, -1, 2, -2, 3, 5, -5, 6, 7, 10, -15, 21, 30]),
    min_size=1, max_size=5))
def test_reciprocity_hypothesis(diag):
    rows = [[diag[i] if i == j else 0 for j in range(len(diag))]
            for i in range(len(diag))]
    f = qf.QuadraticForm(rows)
    assert qf.reciprocity_residual(f) == 0
    assert qf.signature_mod8_from_local(f) == qf.real_signature(f) % 8


def test_is_even():
    assert qf.is_even(qf.QuadraticForm([[2, 1], [1, 2]]))
    assert not qf.is_even(qf.QuadraticForm([[1, 0], [0, 2]]))
    with pytest.raises(qf.FormError, match="integral"):
        qf.is_even(qf.QuadraticForm([[Fraction(1, 2)]]))


def direct_sum(f, g):
    zf, zg = [Fraction(0)] * f.dim, [Fraction(0)] * g.dim
    return qf.QuadraticForm([list(row) + zg for row in f.gram]
                            + [zf + list(row) for row in g.gram])


def test_direct_sum():
    a = qf.QuadraticForm([[1]])
    b = qf.QuadraticForm([[-1, 0], [0, 3]])
    s = direct_sum(a, b)
    assert s.dim == 3
    assert s.det == -3
    assert qf.real_signature(s) == 1
    # oddity is additive
    assert qf.oddity(s) == (qf.oddity(a) + qf.oddity(b)) % 8


def test_parse_gram_roundtrip():
    f = qf.QuadraticForm([[1, Fraction(1, 2)], [Fraction(1, 2), 3]])
    g = qf.parse_gram(qf.gram_text(f))
    assert g.gram == f.gram


def test_parse_gram_errors():
    with pytest.raises(qf.FormError, match="empty"):
        qf.parse_gram("")
    with pytest.raises(qf.FormError, match="dimension header"):
        qf.parse_gram("x 2\n1 0\n0 1\n")
    # '²' passes str.isdigit but not int()
    with pytest.raises(qf.FormError, match="dimension header: 'dim ²'"):
        qf.parse_gram("dim \u00b2\n1 0\n0 1\n")
    with pytest.raises(qf.FormError, match="matrix rows"):
        qf.parse_gram("dim 2\n1 0\n")
    with pytest.raises(qf.FormError, match="entries per row"):
        qf.parse_gram("dim 2\n1 0\n0\n")
    with pytest.raises(qf.FormError, match="rational"):
        qf.parse_gram("dim 1\nzebra\n")


def test_parse_gram_separators():
    want = ((2, Fraction(1, 2)), (Fraction(1, 2), -1))
    for text in ("dim\t2\r\n2 1/2\v\f1/2\t -1 # row 2\n",
                 "  dim 2 \r2\t1/2\r\n\r\n1/2 -1"):
        assert qf.parse_gram(text).gram == want
    with pytest.raises(qf.FormError, match="dimension header"):
        qf.parse_gram("dim 1\u20281")
    # str.split and str.splitlines break at each of these; the format does not
    for sep in ("\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000",
                "\u2028", "\u2029"):
        for text in (f"dim{sep}1\n1\n", f"dim 1{sep}1\n",
                     f"dim 2\n1 0{sep}0 1\n", f"dim 2\n1{sep}0\n0 1\n"):
            with pytest.raises(qf.FormError):
                qf.parse_gram(text)


def test_parse_gram_takes_only_integers_and_fractions():
    # Fraction would take each of these, and expands an exponent into
    # 10**e digits: 1e1000000 alone ran for over a minute
    for token in ("1e9", "1E2", "1.5", ".5", "1_000", "+1", "1/-2", "\u0663",
                  "nan", "inf"):
        with pytest.raises(qf.FormError, match="not an integer or p/q"):
            qf.parse_gram(f"dim 1\n{token}\n")
    with pytest.raises(qf.FormError, match="rational"):
        qf.parse_gram("dim 1\n1/0\n")
    f = qf.parse_gram("dim 2\n-3/6 007\n7 -0\n")
    assert f.gram == ((Fraction(-1, 2), 7), (7, 0))


def test_parse_rows_that_are_not_plain_integers():
    # a row of plain integers is read in one match; any other row is read
    # token by token and keeps that path's messages
    for row, message in (
            ("0 1x", "bad rational entry in row '0 1x': "
                     "'1x' is not an integer or p/q"),
            ("0 \u0661", "bad rational entry in row '0 \u0661': "
                         "'\u0661' is not an integer or p/q"),
            ("1 +1", "bad rational entry in row '1 +1': "
                     "'+1' is not an integer or p/q"),
            ("1 1/0", "bad rational entry in row '1 1/0': Fraction(1, 0)"),
            ("0 1 2", "expected 2 entries per row: '0 1 2'"),
            ("0\t1x 2", "expected 2 entries per row: '0\\t1x 2'")):
        with pytest.raises(qf.FormError) as e:
            qf.parse_gram(f"dim 2\n{row}\n1 0\n")
        assert str(e.value) == message
    # a plain row and a row that mixes integers and p/q
    f = qf.parse_gram("dim 2\n3\t-1\n-1 -4/6\n")
    assert f.gram == ((3, -1), (-1, Fraction(-2, 3)))
    assert [type(x) for row in f.gram for x in row] == [int, int, int, Fraction]


def fraction_parse(text):
    """The all-Fraction parse: every token through Fraction(str), rows
    then wrapped in Fraction again, as gram files were once read."""
    lines = [line for line in (raw.split("#", 1)[0].strip()
                               for raw in text.splitlines()) if line]
    return [[Fraction(Fraction(t)) for t in line.split()]
            for line in lines[1:]]


def gram_text_of(rows):
    return "\n".join([f"dim {len(rows)}", *(" ".join(row) for row in rows)])


def random_gram_tokens(rng, n, tokens):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = rng.choice(tokens)
    return rows


def test_parse_matches_the_fraction_parse(rng):
    e8 = catalog.e8_gram()
    texts = [qf.gram_text(qf.QuadraticForm(e8)),
             qf.gram_text(qf.QuadraticForm(congruent_gram(rng, e8))),
             "dim 2\n-3/6 007\n007 -0/3\n", "dim 2\n4/2 -0\n-0 1\n"]
    integral = ["0", "-0", "1", "-1", "2", "007", "-12", "4/2", "-9/3",
                "0/5", "-0/3"]
    fractional = ["1/2", "-3/4", "2/4", "5/3", "-7/9", "10/4"]
    for t in range(300):
        tokens = (integral, fractional, integral + fractional)[t % 3]
        texts.append(gram_text_of(random_gram_tokens(rng, rng.randint(1, 6),
                                                     tokens)))
    kinds = set()
    for text in texts:
        rows = fraction_parse(text)
        try:
            want = reference_diagonal(rows)
        except qf.FormError:
            with pytest.raises(qf.FormError, match="singular"):
                qf.parse_gram(text)
            continue
        f = qf.parse_gram(text)
        assert [[Fraction(x) for x in row] for row in f.gram] == rows
        assert f.diagonal == want
        integral_form = all(x.denominator == 1 for row in rows for x in row)
        assert f.is_integral == integral_form
        # an entry is an int exactly when it is integral
        assert all((type(x) is int) == (x.denominator == 1)
                   for row in f.gram for x in row)
        if integral_form:
            assert qf.is_even(f) == all(rows[i][i] % 2 == 0
                                        for i in range(f.dim))
        kinds.add((integral_form, any(type(x) is int
                                      for row in f.gram for x in row)))
    # integral, fractional with no integral entry, and mixed files
    assert kinds == {(True, True), (False, False), (False, True)}


# strong pseudoprimes to the first 12 and the first 13 prime bases
# (Sorenson & Webster, Math. Comp. 2017): Miller-Rabin to those 13 bases
# proves primality below PSI13 and not at it
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877)


def test_primality_rejects_pseudoprimes():
    import sympy
    assert factoring._PSI13 == PSI13
    bases = factoring._MR_BASES
    assert all(factoring._strong_probable_prime(PSI12, a) for a in bases[:12])
    assert not factoring._strong_probable_prime(PSI12, 41)
    # PSI13 passes all 13 bases, so only the BPSW branch can reject it
    assert all(factoring._strong_probable_prime(PSI13, a) for a in bases)
    assert not factoring._strong_lucas(PSI13)
    # a strong pseudoprime to the first 9 prime bases, and Carmichael numbers
    composites = (PSI12, PSI13, 3825123056546413051, 561, 41041, 825265,
                  *STRONG_LUCAS_PSEUDOPRIMES)
    for n in composites:
        assert not sympy.isprime(n) and not factoring._is_prime(n), n
    # the Lucas test alone passes its pseudoprimes: Selfridge's parameters
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert factoring._strong_lucas(n), n


def test_strong_lucas_matches_sympy():
    from sympy.ntheory.primetest import is_strong_lucas_prp
    for n in range(3, 30000, 2):
        assert factoring._strong_lucas(n) == is_strong_lucas_prp(n), n
    assert not factoring._strong_lucas(1009**2)


def test_primality_matches_sympy_on_both_sides_of_psi13(rng):
    import sympy
    above = [sympy.nextprime(PSI13)]
    for _ in range(4):
        above.append(sympy.nextprime(above[-1]))
    assert all(map(factoring._is_prime, above))
    assert not any(map(factoring._is_prime, range(PSI13, above[0])))
    for lo, hi in ((3, PSI13), (PSI13, 2**128)):
        for _ in range(2000):
            n = rng.randrange(lo, hi) | 1
            assert factoring._is_prime(n) == sympy.isprime(n), n
    # the Miller-Rabin branch below PSI13 on primes, not only composites
    for _ in range(50):
        p = sympy.randprime(10**6, PSI13)
        assert factoring._is_prime(p) and not factoring._is_prime(p * 1009), p


def test_ecm_inverts_once_for_all_stage2_points(monkeypatch):
    # counts the modular inversions of one curve that finds no factor, at
    # two stage-2 bounds: three before stage 2, one for all its points
    inversions = []

    def counting_pow(base, exp, mod=None):
        inversions.extend([exp] * (exp < 0))
        return pow(base, exp, mod)

    monkeypatch.setattr(factoring, "pow", counting_pow, raising=False)
    n = 1000000000039 * 10000000000037
    try:
        for b2 in (200_000, 20_000):
            monkeypatch.setattr(factoring, "_ECM_B2", b2)
            factoring._ecm_plan.cache_clear()
            points = (len(factoring._ecm_plan()[1])
                      + factoring._ecm_plan()[2][-1][0])
            inversions.clear()
            assert factoring._ecm(n, 6) == 1
            assert len(inversions) == 4 < points, (b2, points)
    finally:
        factoring._ecm_plan.cache_clear()  # rebuilt at the restored B2


def test_odd_prime_factors_match_sympy(rng, monkeypatch):
    import sympy
    curves = []
    ecm = factoring._ecm
    monkeypatch.setattr(factoring, "_ecm",
                        lambda n, s: curves.append(n) or ecm(n, s))
    factoring.prime_factors.cache_clear()

    def factors(n):
        return factoring.prime_factors.__wrapped__(n)

    def prime(digits):
        return sympy.randprime(10**(digits - 1), 10**digits)

    # balanced semiprimes of 20 to 30 digits: past Pollard-Brent's steps
    for digits in (20, 24, 27, 30):
        p, q = prime(digits // 2), prime(digits - digits // 2)
        curves.clear()
        assert factors(p * q) == tuple(sorted({p, q})), (p, q)
        assert curves and set(curves) == {p * q}
    # prime powers (a square is split before any search), and three
    # 9-digit primes
    big = sympy.nextprime(10**12)
    for n in (1009**2, 1009**7, 1000003**5, big**2, big**2 * 1009,
              sympy.nextprime(10**7)**3):
        assert factors(n) == tuple(sorted(sympy.factorint(n))), n
    ps = [prime(9) for _ in range(3)]
    assert factors(math.prod(ps)) == tuple(sorted(set(ps)))
    # the cache hands back the same tuple for the same cofactor
    assert factoring.prime_factors(big**2) is factoring.prime_factors(big**2)

