"""Rational quadratic forms and their p-adic invariants.

A form is a nonsingular symmetric matrix over Q.  Its local data at each
prime is read off a diagonalization: split each diagonal entry as p^a * b
with b prime to p, count antisquares, and sum the unit parts mod 8.  The
diagonalization is fraction-free (Bareiss 1968): the Gram matrix is scaled
once to integers, eliminated on Python ints in its upper triangle only,
rewriting no row while the pivot rows have a 0 in it, and each diagonal
entry is a ratio of successive pivots.  At an odd prime only the entries p
divides need splitting: every other entry is a unit that adds 1 to the
p-signature.  Which entries each odd prime divides is recorded when the
diagonal is factored.  The resulting p-signatures, oddity, and
p-excesses satisfy the mod-8 reciprocity identity, and together with
dimension, determinant square class and real signature they decide
rational equivalence.

The odd primes of the diagonal are found by trial division here and, for
a cofactor of 10^6 or more that it leaves, by the factoring module within
a fixed budget; an input whose cofactor the budget cannot split is
refused with a FormError, not factored without bound.

Nothing here imports complex code: parse_gram shares only textformat
with the complex parser, so the qf verbs load no simplicial module, and
factoring loads only when a cofactor needs splitting.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .textformat import INT_ROW, content_lines


class FormError(ValueError):
    pass


class QuadraticForm:
    """Nonsingular symmetric rational Gram matrix with cached exact data.

    The diagonalization is computed eagerly at construction, so instances
    are immutable and safe to share; odd primes and local invariants are
    cached on first use.  Every congruence step has determinant +-1, so
    det is the product of the diagonal.
    """

    def __init__(self, rows):
        gram = tuple(map(_exact_row, rows))
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise FormError("gram matrix not square")
        if any(row != col for row, col in zip(gram, zip(*gram))):
            raise FormError("gram matrix not symmetric")
        self.gram = gram
        self.dim = n
        self.is_integral: bool = all(_all_ints(row) for row in gram)
        self.diagonal: tuple[Fraction, ...] = tuple(
            _diagonalize(gram, self.is_integral))
        self.det: Fraction = math.prod(self.diagonal, start=Fraction(1))
        # (numerator, denominator) of each diagonal entry, read once
        self._pairs = tuple((d.numerator, d.denominator) for d in self.diagonal)
        self._odd_primes: tuple[int, ...] | None = None
        # odd prime -> indices of the diagonal entries it divides
        self._odd_entries: dict[int, list[int]] = {}
        self._local: dict[int, LocalInvariants] = {}

    def __repr__(self):
        num, den = self.det.numerator, self.det.denominator
        det = _decimal(num) + ("" if den == 1 else "/" + _decimal(den))
        return f"QuadraticForm(dim={self.dim}, det={det})"


def _decimal(x: int) -> str:
    """str(x), or its digit count where x has more digits than str may
    convert (sys.get_int_max_str_digits())."""
    try:
        return str(x)
    except ValueError:
        x = abs(x)
        # 30102999566 / 10^11 is below log10(2), so d is at most the digit
        # count of x, and the loop counts up to it in integers
        d = (x.bit_length() - 1) * 30102999566 // 10**11 + 1
        while x >= 10**d:
            d += 1
        return f"<{d} digits>"


def _exact(x) -> int | Fraction:
    """An int (bool too) or Fraction entry as an int when integral, else as
    a Fraction.  Other types are refused: Fraction would take a float's
    binary value, a str's text and an exponent's full expansion."""
    if not isinstance(x, (int, Fraction)):
        raise FormError(f"gram entry of type {type(x).__name__}: "
                        f"only int and Fraction entries are exact")
    return int(x) if x.denominator == 1 else x


def _all_ints(row) -> bool:
    return set(map(type, row)) == {int}


def _exact_row(row) -> tuple:
    """row with each entry an int when integral, else a Fraction; a row of
    ints is taken as it is."""
    if _all_ints(row):
        return tuple(row)
    return tuple(map(_exact, row))


def _diagonalize(gram, integral: bool) -> list[Fraction]:
    """Symmetric congruence diagonalization over Q, fraction-free.

    The pivot is the first nonzero diagonal entry of the remaining block;
    when the whole block diagonal vanishes, a variable substitution
    x_k -> x_k + x_j with a[k][j] != 0 creates one.  Bareiss steps on
    L * gram (L the lcm of the denominators) keep the trailing block at
    p_{k-1} * L times the rational Schur complement: the same zero pattern,
    hence the same pivots, and d_k = p_k / (p_{k-1} * L).  Entries are ints
    or Fractions; an int has denominator 1, so an integral gram has L = 1.

    The steps and the pivot search read only the upper triangle of the
    trailing block, so only it is kept up to date; the swap and x_k ->
    x_k + x_j move whole rows and columns, so its lower part is restored
    from the upper one just before they run, when a[k][k] = 0.

    A step whose pivot row k has a 0 in column i only scales row i by
    p_k / p_{k-1}, and these factors telescope, so row i is left as it is:
    since[i] is the step as of which its stored values hold, and at step k
    its values are stored * p_{k-1} / pivots[since[i]].  Every Bareiss
    entry is an integer minor of L * gram, so each such division is exact.
    A row is brought up to date only when it is read: as the pivot row,
    in a step whose pivot row has a nonzero entry in it (one division for
    both), or before the lower part is restored.
    """
    n = len(gram)
    if integral:
        scale, a = 1, [list(row) for row in gram]
    else:
        scale = math.lcm(*(x.denominator for row in gram for x in row))
        a = [[x.numerator * (scale // x.denominator) for x in row]
             for row in gram]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_into(k, j):
        # x_k -> x_k + x_j
        a[k] = [x + y for x, y in zip(a[k], a[j])]
        for row in a:
            row[k] += row[j]

    # pivots[s] is p_{s-1} (pivots[0] = 1), the divisor of step s
    diag, pivots, since = [], [1], [0] * n

    def catch_up(i, k):
        # row i's upper part as of step k
        q, prev = pivots[since[i]], pivots[k]
        if q != prev:
            a[i][i:] = [x * prev // q for x in a[i][i:]]
        since[i] = k

    for k in range(n):
        catch_up(k, k)
        if a[k][k] == 0:
            for i in range(k + 1, n):  # the lower part, from the upper
                catch_up(i, k)
                a[i][k:i] = [a[j][i] for j in range(k, i)]
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                off = next(((r, c) for r in range(k, n)
                            for c in range(r + 1, n) if a[r][c] != 0), None)
                if off is None:
                    raise FormError("singular form")
                r, c = off
                if r != k:
                    swap(k, r)
                add_into(k, c)
        ak, p, prev = a[k], a[k][k], pivots[k]
        diag.append(Fraction(p, prev * scale))
        for i in itertools.compress(range(k + 1, n), ak[k + 1:]):
            ai, f, q = a[i], ak[i], pivots[since[i]]
            if q == prev:
                ai[i:] = [(p * x - f * y) // prev
                          for x, y in zip(ai[i:], ak[i:])]
            else:  # row i as of step since[i], brought up in the same division
                u, v, d = p * prev, f * q, prev * q
                ai[i:] = [(u * x - v * y) // d
                          for x, y in zip(ai[i:], ak[i:])]
            since[i] = k + 1
        pivots.append(p)
    return diag


def _split(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(a, num', den') with num / den = p^a * num' / den' and num', den'
    prime to p."""
    a = 0
    if num == 0:
        raise FormError("p_split of zero")
    while num % p == 0:
        num, a = num // p, a + 1
    while den % p == 0:
        den, a = den // p, a - 1
    return a, num, den


def p_split(r, p: int) -> tuple[int, Fraction]:
    """Write a nonzero rational as p^a * b with b prime to p."""
    r = Fraction(r)
    a, num, den = _split(r.numerator, r.denominator, p)
    return a, Fraction(num, den)


def _antisquare(a: int, num: int, den: int, p: int) -> bool:
    if a % 2 == 0:
        return False
    if p == 2:
        return num * pow(den, -1, 8) % 8 in (3, 5)
    return pow(num * pow(den, -1, p), (p - 1) // 2, p) != 1


def is_antisquare(r, p: int) -> bool:
    """Whether r is a p-adic antisquare: odd valuation and non-square unit.

    At p = 2 the unit part must be +-3 mod 8; at odd p it must be a
    quadratic non-residue.
    """
    a, b = p_split(r, p)
    return _antisquare(a, b.numerator, b.denominator, p)


@dataclass(frozen=True)
class LocalInvariants:
    p: int
    p_signature: int
    p_excess: int
    antisquare_count: int


def local_invariants(form: QuadraticForm, p: int) -> LocalInvariants:
    """p-signature (oddity at p = 2), p-excess, and antisquare count.

    At odd p an entry whose numerator and denominator are prime to p is a
    unit (a = 0): no antisquare, and 1 to the p-signature.  So only the
    entries p divides are split, read from the record relevant_odd_primes
    keeps; the diagonal is factored first if it has not been, so a
    cofactor past the budget raises its FormError here.  At p = 2 every
    entry is split.
    """
    if p not in form._local:
        if p == 2:
            hits, total = form._pairs, 0
        else:
            if form._odd_primes is None:
                relevant_odd_primes(form)
            hits = [form._pairs[i] for i in form._odd_entries.get(p, ())]
            total = form.dim - len(hits)
        m = 0
        for num, den in hits:
            a, num, den = _split(num, den, p)
            m += _antisquare(a, num, den, p)
            if p == 2:
                total += num * pow(den, -1, 8) % 8  # the unit mod 8
            else:
                # odd squares are 1 mod 8, so p^a mod 8 only sees a mod 2
                total += p % 8 if a % 2 else 1
        sig = (total + 4 * m) % 8
        excess = (form.dim - sig if p == 2 else sig - form.dim) % 8
        form._local[p] = LocalInvariants(p, sig, excess, m)
    return form._local[p]


def oddity(form: QuadraticForm) -> int:
    return local_invariants(form, 2).p_signature


def real_signature(form: QuadraticForm) -> int:
    """Sylvester signature: positive minus negative diagonal entries."""
    return sum(1 if d > 0 else -1 for d in form.diagonal)


# the odd primes below 1000: a cofactor below 1000**2 that none divides
# is prime
_SMALL_ODD_PRIMES = tuple(p for p in range(3, 1000, 2)
                          if all(p % q for q in range(3, math.isqrt(p) + 1, 2)))


def relevant_odd_primes(form: QuadraticForm) -> list[int]:
    """Odd primes at which the form can have nonzero p-excess: the odd
    prime factors of the numerators and denominators of the diagonal.

    Each odd part is divided by the odd primes below 1000 while p^2 is at
    most what is left, then by the primes found so far.  A cofactor below
    10^6 left after that is prime.  One of 10^6 or more goes to
    factoring.prime_factors, which is imported there and nowhere else:
    Pollard-Brent, then ECM, each within a fixed budget, with primality
    proven by Miller-Rabin below about 3.3 * 10^24 and tested by BPSW
    above it, and the primes of each cofactor cached for the process.  A
    cofactor that exhausts the budget raises FormError naming its digit
    count.

    The primes found for a part are every prime that divides it, so the
    diagonal entries each prime divides are recorded on the way, for
    local_invariants.
    """
    if form._odd_primes is None:
        owners: dict[int, list[int]] = {}  # odd part -> its entries
        for i, (num, den) in enumerate(form._pairs):
            for part in (abs(num), den):
                owners.setdefault(part // (part & -part), []).append(i)
        entries: dict[int, list[int]] = {}  # odd prime -> its entries
        for part in sorted(owners):
            odd, found = part, []
            for p in _SMALL_ODD_PRIMES:
                if p * p > odd:
                    break
                if odd % p == 0:
                    found.append(p)
                    odd //= p
                    while odd % p == 0:
                        odd //= p
            for p in entries:  # factor only what earlier parts left unexplained
                if odd % p == 0:
                    found.append(p)
                    while odd % p == 0:
                        odd //= p
            if odd >= 10**6:
                from .factoring import prime_factors
                found += prime_factors(odd)
            elif odd > 1:  # no prime below 1000 divides it
                found.append(odd)
            for p in found:
                entries.setdefault(p, []).extend(owners[part])
        form._odd_primes = tuple(sorted(entries))
        form._odd_entries = entries
    return list(form._odd_primes)


def reciprocity_residual(form: QuadraticForm) -> int:
    """(signature + sum of odd p-excesses - oddity) mod 8; always zero."""
    return (real_signature(form) - signature_mod8_from_local(form)) % 8


def signature_mod8_from_local(form: QuadraticForm) -> int:
    """Real signature mod 8 recovered from the 2-adic and odd local data."""
    total = oddity(form)
    for p in relevant_odd_primes(form):
        total -= local_invariants(form, p).p_excess
    return total % 8


def _is_square(r: Fraction) -> bool:
    return r > 0 and all(math.isqrt(x) ** 2 == x
                         for x in (r.numerator, r.denominator))


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    failing: str | None

    def __bool__(self) -> bool:
        return self.equivalent


def rationally_equivalent(f: QuadraticForm, g: QuadraticForm) -> EquivalenceResult:
    """Rational equivalence test via the complete invariant set.

    Checks dimension, real signature, oddity, every odd p-excess, and
    the determinant square class; reports the first failing criterion.
    """
    if f.dim != g.dim:
        return EquivalenceResult(False, "dimension")
    if real_signature(f) != real_signature(g):
        return EquivalenceResult(False, "signature")
    if oddity(f) != oddity(g):
        return EquivalenceResult(False, "oddity")
    for p in sorted(set(relevant_odd_primes(f)) | set(relevant_odd_primes(g))):
        if local_invariants(f, p).p_excess != local_invariants(g, p).p_excess:
            return EquivalenceResult(False, f"p-excess at {p}")
    if not _is_square(f.det / g.det):
        return EquivalenceResult(False, "determinant")
    return EquivalenceResult(True, None)


def is_even(form: QuadraticForm) -> bool:
    """Whether an integral form takes only even values on the diagonal."""
    if not form.is_integral:
        raise FormError("form not integral")
    return all(form.gram[i][i] % 2 == 0 for i in range(form.dim))


_ENTRY = re.compile(r"-?[0-9]+(/[0-9]+)?")
_HEADER = re.compile(r"dim[ \t]+([0-9]+)")


def _parse_entry(token: str) -> int | Fraction:
    """An entry token that matches _ENTRY: an int, or p/q as a Fraction."""
    num, _, den = token.partition("/")
    return Fraction(int(num), int(den)) if den else int(num)


def parse_gram(text: str) -> QuadraticForm:
    """Parse the Gram file format: a 'dim d' header, then d rows of d
    exact rational entries, each an integer or p/q as gram_text writes
    them.  Decimals and exponents are rejected: Fraction would expand
    a token such as 1e1000000 into a million-digit integer."""
    lines = content_lines(text, FormError, "dimension header",
                          "Gram entry")
    if not lines:
        raise FormError("empty gram file")
    head = _HEADER.fullmatch(lines[0])
    if not head:
        raise FormError(f"malformed dimension header: {lines[0]!r}")
    n = int(head[1])
    if len(lines) - 1 != n:
        raise FormError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        # a row of plain integers, checked once; any other goes token by token
        ints = INT_ROW.fullmatch(line)
        parts = line.split() if ints else [
            p for p in line.replace("\t", " ").split(" ") if p]
        if len(parts) != n:
            raise FormError(f"expected {n} entries per row: {line!r}")
        if ints:
            rows.append(list(map(int, parts)))
            continue
        for p in parts:
            if not _ENTRY.fullmatch(p):
                raise FormError(f"bad rational entry in row {line!r}: "
                                f"{p!r} is not an integer or p/q")
        try:
            rows.append([_parse_entry(p) for p in parts])
        except (ValueError, ZeroDivisionError) as e:
            raise FormError(f"bad rational entry in row {line!r}: {e}")
    return QuadraticForm(rows)


def gram_text(form: QuadraticForm) -> str:
    lines = [f"dim {form.dim}"]
    for row in form.gram:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
