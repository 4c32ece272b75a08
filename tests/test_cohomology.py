"""Group cohomology of lattices: bar-resolution computation checked
against the periodic resolution for cyclic groups, Shapiro vanishing, and
the knot-group constants checked against local square classes."""

from math import gcd

import pytest

from tamagawa.cohomology import (
    bar_boundary,
    cohomology,
    h0_torsion_dual,
    ono_constant,
    sha_order,
)
from tamagawa.errors import QRankError, UnsupportedTorusError
from tamagawa.exactcore import (
    IntMatrix,
    invariants_from_relations,
    kernel_basis,
    primes_up_to,
    smith_normal_form,
    vstack,
)
from tamagawa.galois import (
    FiniteGroup,
    GaloisLattice,
    build_torus,
    decomposition_subgroup,
    trivial_lattice,
)
from tamagawa.quadfield import BiquadField, QuadField


# ---------------------------------------------------------------------------
# independent oracle: periodic resolution for cyclic groups
#
# For G = <g> cyclic of order m acting on M:
#   H^0 = M^G,  H^{2i} = M^G / N M  (i >= 1),  H^{2i+1} = ker(N|M) / (g-1)M
# computed here with plain SNF quotients, no bar resolution anywhere.


def _cyclic_cohomology_oracle(lattice, n):
    group = lattice.group
    gen = None
    for g in range(group.order):
        if group.element_order(g) == group.order:
            gen = g
            break
    assert gen is not None, "oracle needs a cyclic group"
    rank = lattice.rank
    a = lattice.mats[gen]
    ident = IntMatrix.identity(rank)
    norm = IntMatrix.zeros(rank, rank)
    power = ident
    for _ in range(group.order):
        norm = norm + power
        power = a * power
    gm1 = a - ident

    def quotient_orders(ker_gens, image_mat):
        """Invariants of (lattice spanned by ker_gens) / (columns of
        image_mat), both inside Z^rank."""
        if ker_gens.cols == 0:
            return invariants_from_relations(0, IntMatrix.zeros(0, 0))
        # solve ker_gens * x = image columns over Z via SNF
        res = smith_normal_form(ker_gens)
        coords = []
        for j in range(image_mat.cols):
            vec = tuple(image_mat.get(i, j) for i in range(rank))
            lifted = res.u.apply(vec)
            x = []
            for i in range(ker_gens.cols):
                d = res.d[i] if i < len(res.d) else 0
                if d == 0:
                    assert i >= res.rank
                    x.append(0)
                else:
                    assert lifted[i] % d == 0
                    x.append(lifted[i] // d)
            for i in range(ker_gens.cols, ker_gens.rows):
                assert lifted[i] == 0
            coords.append(x)
        rel = IntMatrix.from_rows(coords).transpose() if coords else IntMatrix.zeros(
            ker_gens.cols, 0)
        full = res.v * rel if coords else rel
        return invariants_from_relations(ker_gens.cols, full)

    if n == 0:
        fixed = kernel_basis(gm1)
        return invariants_from_relations(fixed.cols, IntMatrix.zeros(fixed.cols, 0))
    if n % 2 == 0:
        return quotient_orders(kernel_basis(gm1), norm)
    return quotient_orders(kernel_basis(norm), gm1)


def _sign_lattice():
    c2 = FiniteGroup.cyclic(2)
    return GaloisLattice(c2, 1, (IntMatrix.identity(1), IntMatrix.from_rows([[-1]])))


def _lattices_for_oracle():
    out = []
    for d in (-1, -7, 5):
        k = QuadField.from_d(d)
        for family in ("res-scalars", "norm-one", "quotient-by-gm"):
            t = build_torus(family, k)
            out.append((f"{t.label} xstar", t.xstar))
            out.append((f"{t.label} xcochar", t.xcochar))
    c2 = FiniteGroup.cyclic(2)
    out.append(("trivial C2", trivial_lattice(c2, 2)))
    c3 = FiniteGroup.cyclic(3)
    # rotation lattice for C3: the quotient-by-gm action on Z^2
    rot = IntMatrix.from_rows([[0, -1], [1, -1]])
    out.append(("C3 rotation", GaloisLattice(c3, 2, (IntMatrix.identity(2), rot, rot * rot))))
    out.append(("trivial C3", trivial_lattice(c3, 1)))
    c4 = FiniteGroup.cyclic(4)
    i4 = IntMatrix.from_rows([[0, -1], [1, 0]])
    mats = (IntMatrix.identity(2), i4, i4 * i4, i4 * i4 * i4)
    out.append(("C4 rotation", GaloisLattice(c4, 2, mats)))
    out.append(("trivial C4", trivial_lattice(c4, 1)))
    return out


@pytest.mark.parametrize("name,lattice", _lattices_for_oracle())
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cohomology_matches_cyclic_oracle(name, lattice, n):
    got = cohomology(lattice.group, lattice, n)
    want = _cyclic_cohomology_oracle(lattice, n)
    assert got.free_rank == want.free_rank, (name, n, got, want)
    assert got.factors == want.factors, (name, n, got, want)


def test_cohomology_trivial_module_values():
    # H^*(C_m, Z) = Z, 0, Z/m, 0
    for m in (2, 3, 4):
        g = FiniteGroup.cyclic(m)
        tl = trivial_lattice(g, 1)
        assert cohomology(g, tl, 0).describe() == "Z"
        assert cohomology(g, tl, 1).order == 1
        assert cohomology(g, tl, 2).factors == (m,)
        assert cohomology(g, tl, 3).order == 1
    # Klein four: H^1 = 0, H^2 = (Z/2)^2, H^3 = Z/2
    k4 = FiniteGroup.klein_four()
    tl = trivial_lattice(k4, 1)
    assert cohomology(k4, tl, 1).order == 1
    assert cohomology(k4, tl, 2).factors == (2, 2)
    assert cohomology(k4, tl, 3).factors == (2,)


def test_shapiro_vanishing():
    # H^n(G, Z[G]) = 0 for n >= 1
    for field in (QuadField.from_d(-1), QuadField.from_d(7), BiquadField.from_pair(13, 17)):
        t = build_torus("res-scalars", field)
        for n in (1, 2, 3):
            assert cohomology(t.group, t.xstar, n).order == 1, (t.label, n)
        assert cohomology(t.group, t.xstar, 0).describe() == "Z"


def test_bar_boundary_squares_to_zero():
    t = build_torus("norm-one", BiquadField.from_pair(2, 3))
    for n in (1, 2):
        d_n = bar_boundary(t.xstar, n)
        d_prev = bar_boundary(t.xstar, n - 1)
        prod = d_n * d_prev
        assert all(e == 0 for e in prod.entries)


def test_norm_one_h1():
    for d in (-1, -5, 13):
        t = build_torus("norm-one", QuadField.from_d(d))
        assert cohomology(t.group, t.xstar, 1).factors == (2,)
    bq = build_torus("norm-one", BiquadField.from_pair(13, 17))
    assert cohomology(bq.group, bq.xstar, 1).order == 4


def test_h0_torsion_dual():
    t = build_torus("norm-one", QuadField.from_d(-1))
    assert h0_torsion_dual(t.group, t.xstar).factors == (2,)
    bq = build_torus("norm-one", BiquadField.from_pair(2, 3))
    assert h0_torsion_dual(bq.group, bq.xstar).order == 4
    # rank-deficient (positive Q-rank) inputs are rejected, not guessed at
    c2 = FiniteGroup.cyclic(2)
    swap = GaloisLattice(
        c2, 2, (IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]]))
    )
    with pytest.raises(QRankError):
        h0_torsion_dual(c2, swap)


def test_sign_lattice_h_odd():
    sign = _sign_lattice()
    c2 = sign.group
    assert cohomology(c2, sign, 0).order == 1
    assert cohomology(c2, sign, 1).factors == (2,)
    assert cohomology(c2, sign, 2).order == 1
    assert cohomology(c2, sign, 3).factors == (2,)


# ---------------------------------------------------------------------------
# knot-group constants


def test_ono_constant_quadratic():
    for d in (-1, -3, -5, -7, -23, 5, 13):
        for family in ("norm-one", "quotient-by-gm"):
            t = build_torus(family, QuadField.from_d(d))
            assert ono_constant(t) == 1, (family, d)


def test_ono_constant_biquadratic():
    t = build_torus("norm-one", BiquadField.from_pair(13, 17))
    assert ono_constant(t) == 2
    t2 = build_torus("norm-one", BiquadField.from_pair(2, 3))
    assert ono_constant(t2) == 1


def _squarefree(n):
    return all(n % (p * p) for p in range(2, abs(n)))


def _is_local_square(d, p):
    """Whether the squarefree integer d is a square in Q_p."""
    if p == 2:
        return d % 8 == 1
    return d % p != 0 and pow(d, (p - 1) // 2, p) == 1


def _knot_order_oracle(d1, d2):
    # i(T) = 2 unless some D_p is all of G, i.e. unless d1, d2 and d1*d2 are
    # all non-squares in some Q_p; only p | 2*d1*d2 can qualify
    ds = (d1, d2, d1 * d2 // gcd(d1, d2) ** 2)
    for p in primes_up_to(2 * abs(d1 * d2)):
        if (2 * d1 * d2) % p == 0 and not any(_is_local_square(d, p) for d in ds):
            return 1
    return 2


def test_ono_constant_matches_local_square_oracle():
    ds = [d for d in range(-30, 31) if d not in (0, 1) and _squarefree(d)]
    pairs = [(a, b) for i, a in enumerate(ds) for b in ds[i + 1:]]
    assert len(pairs) == 666
    got = {(a, b): ono_constant(build_torus("norm-one", BiquadField.from_pair(a, b)))
           for a, b in pairs}
    assert got == {(a, b): _knot_order_oracle(a, b) for a, b in pairs}
    assert sum(v == 2 for v in got.values()) == 39


@pytest.mark.parametrize("field", [
    QuadField.from_d(-5), QuadField.from_d(13), BiquadField.from_pair(13, 17),
    BiquadField.from_pair(2, 3), BiquadField.from_pair(-1, 5),
])
def test_unramified_decomposition_groups_are_the_cyclic_subgroups(field):
    # by Chebotarev the unramified decomposition groups are exactly the cyclic
    # subgroups; a sample of Frobenius places must meet each and nothing else
    t = build_torus("norm-one", field)
    G = t.group
    disc = t.splitting_disc()
    unramified = [p for p in primes_up_to(10000) if disc % p][:50]
    sampled = {decomposition_subgroup(t, p) for p in unramified}
    assert sampled == {G.subgroup_closure((g,)) for g in range(G.order)}


def test_sha_order():
    assert sha_order(build_torus("norm-one", QuadField.from_d(-5))) == 1
    assert sha_order(build_torus("norm-one", BiquadField.from_pair(13, 17))) == 2
    with pytest.raises(UnsupportedTorusError):
        sha_order(build_torus("res-scalars", QuadField.from_d(-5)))


def test_ono_constant_rejects_res():
    with pytest.raises(UnsupportedTorusError):
        ono_constant(build_torus("res-scalars", QuadField.from_d(-1)))
