"""Shared builders for the test suite: golden codes, seeded random codes,
block multisets from coordinate sets, brute-force oracles for the
vanishing-dimension route, the q-binomial expansion self-test, the
schoolbook product that the field tables are checked against, the
word-by-word monic masks that span doubling is checked against, the
literal codeword, subcode and extension-word enumerations that the
support histograms are checked against, and the small operations only
the tests need: rendering a code, permuting its coordinates, evaluating
a polynomial at a point, the down operator gamma that the harmonic
bases are checked against, and the Hahn kernel on t-sets that the
extended kernel h_dt is checked against."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, NamedTuple, Sequence

from jacobiforge import (
    BiHomPoly,
    BlockMultiset,
    DegreeUnderflow,
    JacobiForgeError,
    LinearCode,
    PairSubstitution,
    RefSet,
    SubsetFn,
    TooLarge,
    field_new,
    gauss_binom,
    parse_code,
    qfact,
)
from jacobiforge.code import (
    MAX_SUBCODES_DEFAULT,
    MAX_WORDS_DEFAULT,
    column_set_dim,
    coords_mask,
    subcode_count,
    support_mask,
)
from jacobiforge.exactmath import rref
from jacobiforge.harmonic import _hahn_qdt, _subset_masks

EX44_TEXT = "q=2 n=6\n110000\n001100\n000011\n"
HAMMING74_TEXT = "q=2 n=7\n1000110\n0100101\n0010011\n0001111\n"
# the acceptance [12,6]_2 code
C12_TEXT = "q=2 n=12\n" + "".join(
    row + "\n"
    for row in (
        "100000110101",
        "010000011011",
        "001000101110",
        "000100110110",
        "000010101011",
        "000001011101",
    )
)
# extended binary Golay [24,12,8]: cyclic shifts of one row plus parity
GOLAY24_TEXT = "q=2 n=24\n" + "".join(
    "0" * s + "10101110001100000000000"[: 23 - s] + "1\n" for s in range(12)
)

# ternary Golay [12,6,6]_3: shifts of one row, and a last column of 2s
TGOLAY12_TEXT = "q=3 n=12\n" + "".join(
    "0" * s + "201211" + "0" * (5 - s) + "2\n" for s in range(6)
)

# [6,3] binary, self-dual, generator rows 110000 / 001100 / 000011
def ex44() -> LinearCode:
    return parse_code(EX44_TEXT)


def hamming74() -> LinearCode:
    return parse_code(HAMMING74_TEXT)


def c12() -> LinearCode:
    return parse_code(C12_TEXT)


def golay24() -> LinearCode:
    return parse_code(GOLAY24_TEXT)


def tgolay12() -> LinearCode:
    return parse_code(TGOLAY12_TEXT)


def qbinom_expansion_check(a: int, b: int, q: int) -> bool:
    """Self-test of the expansion of [a,b]_q as an alternating q-binomial sum."""
    lhs = qfact(a, b, q)
    rhs = sum(
        gauss_binom(b, i, q) * (-1) ** (b - i) * q ** math.comb(b - i, 2) * q ** (a * i)
        for i in range(b + 1)
    )
    return lhs == rhs


def poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Schoolbook product of coefficient lists, reduced by the monic modulus,
    all mod p: the field tables are checked against it."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, e - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(e + 1):
                prod[deg - e + j] = (prod[deg - e + j] - c * modulus[j]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
    return out


def mask_support(mask: int) -> frozenset[int]:
    """The 1-based coordinate set of a support mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def block_multiset(n: int, blocks) -> BlockMultiset:
    """The multiset of the given coordinate sets; a repeated set counts again."""
    return BlockMultiset(n, Counter(coords_mask(b) for b in blocks))


def occurrences(blocks: BlockMultiset) -> list[frozenset[int]]:
    """Every block occurrence as a coordinate set, repeats kept."""
    return [mask_support(m) for m, c in blocks.counts.items() for _ in range(c)]


def random_code(rng: random.Random, q: int, n: int, rows: int) -> LinearCode:
    spec = field_new(q)
    mat = [[rng.randrange(q) for _ in range(n)] for _ in range(rows)]
    return LinearCode(spec, n, mat)


def sweep_codes(seed: int = 20250801, count: int = 56) -> list[LinearCode]:
    """Deterministic pool of random codes with q in {2,3}, n <= 8, k <= 4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice((2, 3))
        n = rng.randrange(3, 9)
        rows = rng.randrange(1, min(4, n) + 1)
        code = random_code(rng, q, n, rows)
        if code.k == 0:
            continue
        out.append(code)
    return out


def sample_tsets(rng: random.Random, n: int, max_size: int, per_size: int = 2):
    """A few reference coordinate tuples per size 0..max_size, deterministic."""
    out = []
    for t in range(0, min(max_size, n) + 1):
        seen = set()
        seen.add(tuple(range(1, t + 1)))
        attempts = 0
        while len(seen) < per_size and attempts < 20:
            seen.add(tuple(sorted(rng.sample(range(1, n + 1), t))))
            attempts += 1
        out.extend(sorted(seen))
    return out


def render_code(code: LinearCode) -> str:
    """Inverse of parse_code for the canonical generator."""
    head = f"q={code.spec.q} n={code.n}"
    if code.spec.e > 1:
        head += f" p={code.spec.p} e={code.spec.e}"
    sep = "" if code.spec.q <= 10 else " "
    return "\n".join([head] + [sep.join(map(str, row)) for row in code.gen]) + "\n"


def permute_coordinates(code: LinearCode, perm: Sequence[int]) -> LinearCode:
    """Relabel coordinates; perm[i-1] is the new home of coordinate i (1-based)."""
    if sorted(perm) != list(range(1, code.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    rows = []
    for row in code.gen:
        new = [0] * code.n
        for i, x in enumerate(row):
            new[perm[i] - 1] = x
        rows.append(new)
    return LinearCode(code.spec, code.n, rows)


def complement(tset: RefSet) -> frozenset[int]:
    """The coordinates of [n] outside T."""
    return frozenset(range(1, tset.n + 1)) - tset.members


def pair_substitution(wz, xy) -> PairSubstitution:
    """The substitution with the given (w, z) and (x, y) maps, as Fractions."""
    return PairSubstitution(tuple(map(Fraction, wz)), tuple(map(Fraction, xy)))


def evaluate(poly: BiHomPoly, w, z, x, y) -> Fraction:
    """The polynomial's value at the point (w, z, x, y)."""
    w, z, x, y = map(Fraction, (w, z, x, y))
    s, n = poly.deg_wz, poly.deg_xy
    return sum(
        (
            c * w ** (s - j) * z ** j * x ** (n - i) * y ** i
            for j, row in enumerate(poly.coeff)
            for i, c in enumerate(row)
            if c
        ),
        Fraction(0),
    )


def gamma(f: SubsetFn) -> SubsetFn:
    """Down operator: (gamma f)(Y) = sum of f over the d-sets containing Y,
    summed from the d-set side: each f(Z) goes to the d sets Z minus a point."""
    if f.d == 0:
        raise DegreeUnderflow("gamma needs degree at least 1")
    out: Counter = Counter()
    for z, v in f.values.items():
        for point in _subset_masks(z, 1):
            out[z ^ point] += v
    return SubsetFn(f.n, f.d - 1, out)


def hahn_kernel_fn(n: int, t: int, d: int, tset: RefSet) -> SubsetFn:
    """The degree-t subset function Z -> Q_d^t(t - |Z meets T|) for a t-set T."""
    if tset.size != t:
        raise ValueError("T must be a t-set")
    values = {
        z: _hahn_qdt(n, t, d, t - (z & tset.mask).bit_count())
        for z in _subset_masks((1 << n) - 1, t)
    }
    return SubsetFn(n, t, values)


def value(f: SubsetFn, coords) -> Fraction:
    """f at the subset with the given 1-based coordinates."""
    return f.values.get(coords_mask(coords), Fraction(0))


def is_zero(f: SubsetFn) -> bool:
    return not any(f.values.values())


def shortened_dim(code: LinearCode, tset: RefSet, x_set, y_set) -> int:
    """dim of the subcode vanishing on X union Y, for X in T-bar and Y in T."""
    x_set = frozenset(x_set)
    y_set = frozenset(y_set)
    if not x_set <= complement(tset):
        raise ValueError("X must lie in the complement of T")
    if not y_set <= tset.members:
        raise ValueError("Y must lie inside T")
    return column_set_dim(code, x_set | y_set)


def _vanishing_pairs(code: LinearCode, tset: RefSet, s: int, t: int):
    """dim of the subcode vanishing on X union Y, for every |X| = s in the
    complement and |Y| = t in T."""
    for x_cols in combinations(sorted(complement(tset)), s):
        for y_cols in combinations(sorted(tset.members), t):
            yield shortened_dim(code, tset, x_cols, y_cols)


def q_st(code: LinearCode, tset: RefSet, r: int, s: int, t: int) -> int:
    """Sum over |X| = s in the complement and |Y| = t in T of the number of
    r-dim subcodes vanishing on X union Y."""
    q = code.spec.q
    return sum(gauss_binom(ell, r, q) for ell in _vanishing_pairs(code, tset, s, t))


def q_st_ext(code: LinearCode, tset: RefSet, m: int, s: int, t: int) -> int:
    """Extension analogue: each (X, Y) contributes (q^m)^dim of the vanishing subcode."""
    qm = code.spec.q ** m
    return sum(qm ** ell for ell in _vanishing_pairs(code, tset, s, t))


# ---------------------------------------------------------------------------
# literal enumeration: every codeword, subcode and extension word built one
# by one


def support(vec: Sequence[int]) -> frozenset[int]:
    """1-based coordinates where the vector is nonzero."""
    return frozenset(i + 1 for i, x in enumerate(vec) if x)


def span_words(spec, n: int, rows) -> Iterator[list[int]]:
    """Every GF(q)-combination of the rows, coefficients in lexicographic order."""
    scaled = [[tuple(spec.mul(a, x) for x in row) for a in range(spec.q)] for row in rows]
    for msg in product(range(spec.q), repeat=len(rows)):
        word = [0] * n
        for a, row_mult in zip(msg, scaled):
            if a:
                mult = row_mult[a]
                word = [spec.add(x, y) for x, y in zip(word, mult)]
        yield word


def monic_masks_word_by_word(code: LinearCode) -> list[int]:
    """``monic_masks`` as it was enumerated before span doubling: every monic
    message's word added up from the generator rows, in the same order."""
    spec, n, gen = code.spec, code.n, code.gen
    return [
        support_mask([spec.add(x, y) for x, y in zip(lead, tail)])
        for p, lead in enumerate(gen)
        for tail in span_words(spec, n, gen[p + 1:])
    ]


def codewords(code: LinearCode, max_words: int = MAX_WORDS_DEFAULT) -> Iterator[tuple[int, ...]]:
    """All q^k codewords, in message lexicographic order (m * G)."""
    spec, k, n = code.spec, code.k, code.n
    if spec.q ** k > max_words:
        raise TooLarge(f"{spec.q}^{k} codewords exceed the guard {max_words}")
    for word in span_words(spec, n, code.gen):
        yield tuple(word)


def rows_support(rows) -> frozenset[int]:
    """Union of row supports; basis independent for a fixed row space."""
    out: set[int] = set()
    for row in rows:
        for i, x in enumerate(row):
            if x:
                out.add(i + 1)
    return frozenset(out)


def _iter_rref_messages(q: int, k: int, r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every r x k matrix in RREF over GF(q), one per r-dim subspace of GF(q)^k."""
    if r == 0:
        yield ()
        return
    for pivots in combinations(range(k), r):
        pivot_set = set(pivots)
        free = [
            (s, c)
            for s in range(r)
            for c in range(pivots[s] + 1, k)
            if c not in pivot_set
        ]
        base = [[0] * k for _ in range(r)]
        for s, p in enumerate(pivots):
            base[s][p] = 1
        if not free:
            yield tuple(tuple(row) for row in base)
            continue
        for values in product(range(q), repeat=len(free)):
            mat = [row[:] for row in base]
            for (s, c), v in zip(free, values):
                mat[s][c] = v
            yield tuple(tuple(row) for row in mat)


class Subcode(NamedTuple):
    """An r-dimensional subcode presented by an RREF basis inside its parent."""

    parent: LinearCode
    r: int
    basis: tuple[tuple[int, ...], ...]


def _check_subcode_guard(code: LinearCode, r: int, max_subcodes: int):
    if not 0 <= r <= code.k:
        raise ValueError(f"need 0 <= r <= k = {code.k}")
    if subcode_count(code, r) > max_subcodes:
        raise TooLarge(
            f"{subcode_count(code, r)} subcodes exceed the guard {max_subcodes}"
        )


def subcodes(
    code: LinearCode, r: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> Iterator[Subcode]:
    """All r-dim subcodes, each exactly once, as RREF images of message subspaces."""
    _check_subcode_guard(code, r, max_subcodes)
    spec = code.spec
    for msg in _iter_rref_messages(spec.q, code.k, r):
        rows = _message_image(code, msg)
        reduced, _ = rref(spec, rows, code.n)
        yield Subcode(code, r, tuple(tuple(row) for row in reduced))


def _message_image(code: LinearCode, msg_rows) -> list[list[int]]:
    """Map message-space rows through the generator matrix."""
    spec, n = code.spec, code.n
    out = []
    for mrow in msg_rows:
        word = [0] * n
        for a, grow in zip(mrow, code.gen):
            if a:
                if a == 1:
                    word = [spec.add(x, y) for x, y in zip(word, grow)]
                else:
                    word = [
                        spec.add(x, spec.mul(a, y)) for x, y in zip(word, grow)
                    ]
        out.append(word)
    return out


def iter_subcode_supports(
    code: LinearCode, r: int, max_subcodes: int = MAX_SUBCODES_DEFAULT
) -> Iterator[frozenset[int]]:
    """Support of every r-dim subcode, with multiplicity, as 1-based sets."""
    _check_subcode_guard(code, r, max_subcodes)
    for msg in _iter_rref_messages(code.spec.q, code.k, r):
        yield rows_support(_message_image(code, msg))


class UnsupportedBaseField(JacobiForgeError):
    """Direct extension enumeration requires a prime base field."""


def extension_codewords(
    code: LinearCode, m: int, max_words: int = MAX_WORDS_DEFAULT
) -> Iterator[tuple[int, ...]]:
    """All q^(mk) words of the degree-m extension, as vectors over GF(q^m).

    The base field embeds as the constant polynomials, so only prime base
    fields are supported.
    """
    if code.spec.e != 1:
        raise UnsupportedBaseField("direct extension needs a prime base field")
    if m < 1:
        raise ValueError("extension degree m must be at least 1")
    spec, k, n = code.spec, code.k, code.n
    if spec.q ** (m * k) > max_words:
        raise TooLarge(
            f"{spec.q}^{m * k} extension words exceed the guard {max_words}"
        )
    ext = field_new(spec.p, m)
    if k == 0:
        yield (0,) * n
        return
    scaled = [
        [tuple(ext.mul(a, x) for x in row) for a in range(ext.q)] for row in code.gen
    ]
    for msg in product(range(ext.q), repeat=k):
        word = [0] * n
        for a, row_mult in zip(msg, scaled):
            if a:
                mult = row_mult[a]
                word = [ext.add(x, y) for x, y in zip(word, mult)]
        yield tuple(word)
