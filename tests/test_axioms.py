"""The checked build's axiom check (`Algebra._verify_axioms`): Light's test
on the middles a derivation proves, against the full triple check
(`ring_oracles.verify_axioms_dense`), and the memoized constructors that
run it on every build."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from azumaya import algebras
from azumaya.algebras import Algebra, AlgebraError, matrix_algebra, weyl_quotient
from azumaya.rings import GaloisField, ProductRing, ZMod
from ring_oracles import verify_axioms_dense

BASES = [ZMod(2), ZMod(4), ZMod(6), ZMod(12), GaloisField.default(2, 2), ProductRing([ZMod(2), ZMod(3)])]
WEYL = [(p, a, b) for p in (2, 3, 5, 7) for a, b in ((0, 0), (1, 0), (p - 1, 1))]


def _build(data):
    """A matrix algebra (n >= 2) or a Weyl quotient, with its generators and
    derivation."""
    if data.draw(st.booleans()):
        R, n = data.draw(st.sampled_from(BASES)), data.draw(st.integers(2, 3))
        return matrix_algebra(R, n), *algebras._matrix_generators(R, n)
    p, a, b = data.draw(st.sampled_from(WEYL))
    return weyl_quotient(p, a, b), *algebras._weyl_generators(p)


def _verdict(check, *args):
    try:
        check(*args)
    except AlgebraError as e:
        return str(e)
    return None


def _reproduces(A, G, derivation):
    """Every step's product, by dense rows through `mul_batch`, is its
    child's identity row; 1 is the unit row, however it multiplies."""
    child, parent, gen, left = derivation.T
    eye = np.eye(A.dim, dtype=np.int64)
    X, Y = np.vstack([eye, A.unit_flat])[parent], np.vstack([G, A.unit_flat])[gen]
    side = left[:, None] == 1
    return np.array_equal(A.mul_batch(np.where(side, Y, X), np.where(side, X, Y)), eye[child])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_light_check_matches_the_full_triple_check(data):
    M, G, derivation = _build(data)
    (I, J, K), V, _ = M._sparse_rows
    V, unit = V.copy(), M.unit_flat.copy()
    if data.draw(st.booleans()):
        e = data.draw(st.integers(0, len(V) - 1))
        V[e] += data.draw(st.integers(1, int(M._moduli_arr[K[e]]) - 1))
    else:
        unit[data.draw(st.integers(0, M.dim - 1))] += 1
    A = Algebra(M.base, ((I, J, K), V), unit, check=False, generators=G)
    oracle = _verdict(verify_axioms_dense, A)
    verdict = _verdict(A._verify_axioms, derivation)
    assert (verdict is None) == (oracle is None and _reproduces(A, G, derivation))
    if oracle is not None:
        assert verdict == oracle  # the first failing triple, else the unit
    assert _verdict(A._verify_axioms) == oracle  # with every middle


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_unassociative_matches_the_dense_triples(data):
    # one constant perturbed, then the first failing (a, s, c) with s among
    # random middles, against every triple of the dense tensor
    M = _build(data)[0]
    assume(M.dim <= 25)
    (I, J, K), V, _ = M._sparse_rows
    V = V.copy()
    e = data.draw(st.integers(0, len(V) - 1))
    V[e] += data.draw(st.integers(0, int(M._moduli_arr[K[e]]) - 1))
    A = Algebra(M.base, ((I, J, K), V), M.unit_flat, check=False)
    middles = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=A.dim, max_size=A.dim)))
    S, mod = A.struct, A._moduli_arr
    left = np.einsum("abk,kcm->abcm", S, S) % mod
    right = np.einsum("bck,akm->abcm", S, S) % mod
    bad = [tuple(int(x) for x in t) for t in np.argwhere((left != right).any(axis=3)) if t[1] in middles]
    assert A._first_unassociative(middles) == (bad[0] if bad else None)


def test_checked_builds_scan_the_support_of_their_generators(monkeypatch):
    seen, scan = [], Algebra._first_unassociative
    monkeypatch.setattr(Algebra, "_first_unassociative", lambda A, middles: seen.append(middles.tolist()) or scan(A, middles))
    matrix_algebra.cache_clear()
    weyl_quotient.cache_clear()
    matrix_algebra(ZMod(2), 3)
    weyl_quotient(5, 2, 1)
    matrix_algebra(ProductRing([ZMod(2), ZMod(3)]), 2)
    # E_12, E_21, E_23, E_32; x and y; then E_12 and E_21 with both
    # coordinates of 1, and b_s E_11 for both s
    assert seen == [[1, 3, 5, 7], [1, 5], [0, 1, 2, 3, 4, 5]]


def _mutants(G, derivation):
    """A generator dropped, a parent recorded after its child, and a tree
    edge aimed at the wrong coordinate, each as (name, generators,
    derivation); the algebra stays associative, so only the derivation
    can refuse them."""
    child, parent = derivation[:, 0], derivation[:, 1]
    for g in range(len(G)):
        yield f"drop-{g}", np.delete(G, g, axis=0), derivation
    t = int(np.flatnonzero(parent >= 0)[0])
    mine = int(np.flatnonzero(child == parent[t])[0])  # the step of t's parent
    late = derivation.copy()
    late[[mine, t]] = late[[t, mine]]
    yield "parent-after-child", G, late
    steps = np.flatnonzero(parent >= 0)
    steps = steps[steps >= 2]  # with an earlier coordinate besides the parent
    for t in steps[[0, len(steps) // 2, -1]]:
        wrong = derivation.copy()
        wrong[t, 1] = next(int(c) for c in child[:t] if c != parent[t])
        yield f"edge-{t}", G, wrong


@pytest.mark.parametrize("R", BASES, ids=repr)
@pytest.mark.parametrize("n", [2, 3])
def test_matrix_derivation_mutants_are_refused(R, n):
    M, (G, derivation) = matrix_algebra(R, n), algebras._matrix_generators(R, n)
    (I, J, K), V, _ = M._sparse_rows
    for _, G2, steps in _mutants(G, derivation):
        with pytest.raises(AlgebraError, match="derivation"):
            Algebra(M.base, ((I, J, K), V), M.unit_flat, generators=G2, derivation=steps)


@pytest.mark.parametrize("p, a, b", WEYL)
def test_weyl_derivation_mutants_are_refused(p, a, b):
    W, (G, derivation) = weyl_quotient(p, a, b), algebras._weyl_generators(p)
    (I, J, K), V, _ = W._sparse_rows
    for _, G2, steps in _mutants(G, derivation):
        with pytest.raises(AlgebraError, match="derivation"):
            Algebra(W.base, ((I, J, K), V), W.unit_flat, generators=G2, derivation=steps)


def test_constructors_are_memoized():
    for R in BASES:
        assert matrix_algebra(R, 3) is matrix_algebra(R, 3) is matrix_algebra(R, 3, check=False)
    assert weyl_quotient(5, 2, 1) is weyl_quotient(5, 2, 1)


@pytest.mark.parametrize("make", [lambda: matrix_algebra(ZMod(4), 3), lambda: weyl_quotient(3, 1, 2)], ids=["M_3(Z/4)", "W(3,1,2)"])
def test_a_memoized_algebra_is_read_only(make):
    A = make()
    (I, J, K), V, ptr = A._sparse_rows
    arrays = [I, J, K, V, ptr, A.unit_flat, A._moduli_arr, A.generators, *A._sparse_struct[:5]]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0] + 1
    assert make() is A and make() == A
