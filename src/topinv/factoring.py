"""Primality and factoring within a fixed budget, for the odd primes of a
form's diagonal.

quadforms imports this module only when a cofactor of 10^6 or more is
left after trial division, so a form whose parts trial division settles
(E8, the unimodular forms) loads and compiles none of it.

A number is declared prime by Miller-Rabin to the first 13 prime bases,
a proof below PSI13 (about 3.3 * 10^24), and by BPSW at or above it,
which has no known counterexample but no proof.  A composite is split by
Pollard-Brent, then by ECM, each within a fixed budget; a composite that
exhausts both raises FormError naming its digit count.  The primes of
each number split are cached for the life of the process.
"""

from __future__ import annotations

import functools
import itertools
import math

from .quadforms import FormError

# Miller-Rabin to the first 13 prime bases proves primality below PSI13,
# the least strong pseudoprime to all of them (Sorenson & Webster, Math.
# Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981

# The splitting budget of one composite: Pollard-Brent steps, then ECM
# curves, each with stage-1 bound B1 and stage-2 bound B2, stage 2 taking
# the primes of (B1, B2] as m * D +- j.  Over the dense forms of 60 seeds
# of the qf-forms benchmark no split needs more than a third of the curves
# (scripts/factor_tail.py).
_RHO_STEPS = 1 << 16
_ECM_B1, _ECM_B2, _ECM_D = 2000, 200_000, 2310
_ECM_CURVES = 100


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a, for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n), for odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D) / 4.  With n + 1 = d * 2^s, d odd, n passes when U_d = 0
    or V_(d 2^r) = 0 for some r < s (mod n).  A square has no such D, so
    it is rejected first."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:  # gcd(D, n) > 1: a proper factor unless |D| = n
            return abs(d) == n
        d = 2 - d if d < 0 else -d - 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, q  # U_k, V_k, Q^k for k = 1
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n  # k -> 2k
        if bit == "1":  # k -> k + 1, halving mod the odd n
            u, v = u + v, d * u + v
            u, v = (u + n * (u & 1)) // 2 % n, (v + n * (v & 1)) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 bases of _MR_BASES below _PSI13, a proof
    there; BPSW at or above it (Baillie & Wagstaff, Math. Comp. 1980):
    base 2, then the strong Lucas test.  No BPSW pseudoprime is known, but
    none is proven impossible."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _PSI13:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas(n)


def _brent(n: int, c: int, budget: int) -> tuple[int, int]:
    """Pollard's rho on x -> x^2 + c mod n in Brent's form (BIT 1980), for
    at most `budget` steps: (g, steps taken), g a divisor of n that is 1
    when the steps ran out and may be n itself."""
    y, r, q, used = 2, 1, 1, 0
    while used + 2 * r <= budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        for k in range(0, r, 128):  # one gcd per batch of 128 products
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            if g > 1:
                if g == n:  # the batch overshot: redo it one gcd a step
                    g = 1
                    while g == 1:
                        ys = (ys * ys + c) % n
                        g = math.gcd(x - ys, n)
                return g, used + 2 * r
        used += 2 * r
        r *= 2
    return 1, used


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """X:Z of 2P on the Montgomery curve with a24 = (A + 2) / 4."""
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    return s * d % n, (s - d) * (d + a24 * (s - d)) % n


def _xadd(x1, z1, x2, z2, xd, zd, n: int) -> tuple[int, int]:
    """X:Z of P + Q from those of P, Q and P - Q."""
    a, b = (x1 - z1) * (x2 + z2), (x1 + z1) * (x2 - z2)
    return zd * (a + b) ** 2 % n, xd * (a - b) ** 2 % n


def _ladder(x: int, k: int, a24: int, n: int) -> tuple[int, int]:
    """X:Z of k(x : 1) by the Montgomery ladder: (x0 : z0) = mP and
    (x1 : z1) = (m + 1)P, one becoming their sum (difference P) and the
    other doubling per bit of k.  _xadd and _xdbl are written out here,
    since this loop is most of a curve's time."""
    (x0, z0), (x1, z1) = (x, 1), _xdbl(x, 1, a24, n)
    for bit in bin(k)[3:]:
        a, b = (x0 - z0) * (x1 + z1), (x0 + z0) * (x1 - z1)
        if bit == "1":
            x0, z0 = (a + b) ** 2 % n, x * (a - b) ** 2 % n
            s, d = (x1 + z1) ** 2 % n, (x1 - z1) ** 2 % n
            x1, z1 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
        else:
            x1, z1 = (a + b) ** 2 % n, x * (a - b) ** 2 % n
            s, d = (x0 + z0) ** 2 % n, (x0 - z0) ** 2 % n
            x0, z0 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
    return x0, z0


@functools.cache
def _ecm_plan() -> tuple[int, tuple[int, ...], tuple]:
    """The stage-1 multiplier lcm(1, ..., B1); the baby steps j < D/2
    prime to D; and (m, indices of j) for each giant step m such that
    m * D - j or m * D + j is a prime in (B1, B2].  Built on first use, so
    a process that never runs ECM never pays for it."""
    sieve = bytearray([1]) * (_ECM_B2 + 1)
    for p in range(2, math.isqrt(_ECM_B2) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _ECM_B2 + 1, p)))
    babies = tuple(j for j in range(1, _ECM_D // 2, 2)
                   if math.gcd(j, _ECM_D) == 1)
    index = {j: i for i, j in enumerate(babies)}
    giants: dict[int, set[int]] = {}
    for q in itertools.compress(range(_ECM_B1 + 1, _ECM_B2 + 1),
                                sieve[_ECM_B1 + 1:]):
        m = (q + _ECM_D // 2) // _ECM_D
        giants.setdefault(m, set()).add(index[abs(q - m * _ECM_D)])
    return (math.lcm(*range(1, _ECM_B1 + 1)), babies,
            tuple((m, tuple(js)) for m, js in sorted(giants.items())))


def _ecm(n: int, sigma: int) -> int:
    """One ECM curve (Montgomery, Math. Comp. 1987) on Suyama's curve of
    sigma: a divisor of n, 1 when the curve finds none.

    Stage 1 multiplies the point P by lcm(1, ..., B1), giving Q.  Stage 2
    catches a prime factor p for which qQ = O mod p with one more prime q
    in (B1, B2]: with q = m * D +- j, x(m D Q) = x(j Q) mod p, so p divides
    the product of the differences of the affine x of every such pair.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    den = 16 * pow(u, 3, n) * v % n  # of a24 = (A + 2) / 4
    if (g := math.gcd(den, n)) > 1:
        return g
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    k, babies, giants = _ecm_plan()
    xq, zq = _ladder(pow(u, 3, n) * pow(v, -3, n) % n, k, a24, n)
    if (g := math.gcd(zq, n)) > 1:
        return g
    xq = xq * pow(zq, -1, n) % n
    # jQ for odd j, (j + 2)Q = jQ + 2Q with difference (j - 2)Q
    two = _xdbl(xq, 1, a24, n)
    odd = [(xq, 1), _xadd(xq, 1, *two, xq, 1, n)]
    while len(odd) <= babies[-1] // 2:
        odd.append(_xadd(*odd[-1], *two, *odd[-2], n))
    # mDQ for m = 1, 2, ..., (m + 1)DQ = mDQ + DQ with difference (m - 1)DQ
    step = _ladder(xq, _ECM_D, a24, n)
    big = [step, _xdbl(*step, a24, n)]
    while len(big) < giants[-1][0]:
        big.append(_xadd(*big[-1], *step, *big[-2], n))
    points = [odd[j // 2] for j in babies] + big
    # Montgomery's batch inversion: pre[i] is z_0 ... z_(i-1) mod n, so one
    # pow inverts them all, and the full product has the Z's gcd with n
    pre = list(itertools.accumulate((z for _, z in points),
                                    lambda a, b: a * b % n, initial=1))
    if (g := math.gcd(pre[-1], n)) > 1:
        return g
    inv, xs = pow(pre[-1], -1, n), [0] * len(points)
    for i, (x, z) in reversed(list(enumerate(points))):
        # inv is 1 / (z_0 ... z_i), so x_i / z_i = x_i pre[i] inv
        xs[i], inv = x * pre[i] % n * inv % n, inv * z % n
    xb, xg = xs[:len(babies)], xs[len(babies):]  # xg[m - 1] is x(m D Q)
    acc = 1
    for m, js in giants:
        x = xg[m - 1]
        for i in js:
            acc = acc * (x - xb[i]) % n
    return math.gcd(acc, n)


def _find_factor(n: int) -> int:
    """A divisor of the odd composite n strictly between 1 and n: Pollard-
    Brent with c = 1, 2, ... in one step budget, then ECM on one curve
    after another; FormError once both budgets are spent."""
    left, c = _RHO_STEPS, 1
    while left > 0:
        g, used = _brent(n, c, left)
        if 1 < g < n:
            return g
        if g == 1:  # the steps ran out
            break
        left, c = left - used, c + 1
    for sigma in range(6, 6 + _ECM_CURVES):
        if 1 < (g := _ecm(n, sigma)) < n:
            return g
    raise FormError(f"cannot factor a {len(str(n))}-digit cofactor "
                    f"within the splitting budget")


@functools.lru_cache(maxsize=1024)
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes of an odd n > 1, sorted.  Cached process-wide,
    so a worker that meets the same cofactor again does not split it."""
    primes, todo = set(), [n]
    while todo:
        m = todo.pop()
        if _is_prime(m):
            primes.add(m)
        elif (r := math.isqrt(m)) ** 2 == m:
            todo.append(r)
        else:
            d = _find_factor(m)
            todo += [d, m // d]
    return tuple(sorted(primes))
