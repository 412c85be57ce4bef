"""The Jacobson radical `algebras._radical` (Cohen, Ivanyos and Wales)
against three oracles: its rows span a nilpotent two-sided ideal, it is the
trace form's radical when p > D (Dickson), and it has the known dimension
on semisimple algebras, upper-triangular algebras, group algebras of
p-groups and M_n (x) UT_2 (x) UT_2."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya.algebras import (
    _radical,
    matrix_algebra,
    opposite,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.linalg import Subgroup
from azumaya.rings import GaloisField, ZMod
from ring_oracles import ideal_closure, is_nilpotent_ideal, table_algebra, trace_form_radical, twisted
from test_splitting import _draw_invertible, _truncated_polynomials

F4 = GaloisField.default(2, 2)


def group_algebra(p, orders):
    """F_p[C_o1 x C_o2 x ...], on the group elements in coordinate order."""
    elements = list(itertools.product(*map(range, orders)))
    index = {g: i for i, g in enumerate(elements)}
    d = len(elements)
    table = np.zeros((d, d, d, 1), dtype=np.int64)
    for g, h in itertools.product(elements, repeat=2):
        table[index[g], index[h], index[tuple((a + b) % o for a, b, o in zip(g, h, orders))]] = 1
    unit = np.eye(d, 1, dtype=np.int64)
    return table_algebra(ZMod(p), table, unit, label=f"F_{p}[C{orders}]")


def ut2_squared_times(n):
    """M_n (x) UT_2 (x) UT_2 over F_2: J = M_n (x) J(UT_2 (x) UT_2), of
    dimension 5 n^2."""
    U = upper_triangular_algebra(ZMod(2), 2)
    return tensor_product(tensor_product(matrix_algebra(ZMod(2), n, check=False), U), U)


# (build, dim_(F_p) J)
KNOWN = {
    "M_2(F_2)": (lambda: matrix_algebra(ZMod(2), 2), 0),
    "M_4(F_2)": (lambda: matrix_algebra(ZMod(2), 4, check=False), 0),
    "M_3(F_3)": (lambda: matrix_algebra(ZMod(3), 3), 0),
    "M_2(GF(4))": (lambda: matrix_algebra(F4, 2), 0),
    "W(5,1,2)": (lambda: weyl_quotient(5, 1, 2), 0),
    "W(7,0,0)": (lambda: weyl_quotient(7, 0, 0), 0),
    "op(M_4(GF(4)))": (lambda: opposite(matrix_algebra(F4, 4, check=False)), 0),
    "UT_2(F_2)": (lambda: upper_triangular_algebra(ZMod(2), 2), 1),
    "UT_3(F_3)": (lambda: upper_triangular_algebra(ZMod(3), 3), 3),
    "UT_4(F_2)": (lambda: upper_triangular_algebra(ZMod(2), 4), 6),
    "UT_2(GF(4))": (lambda: upper_triangular_algebra(F4, 2), 2),
    "F_2[C_2]": (lambda: group_algebra(2, (2,)), 1),
    "F_3[C_3]": (lambda: group_algebra(3, (3,)), 2),
    "F_5[C_5]": (lambda: group_algebra(5, (5,)), 4),
    "F_2[C_4]": (lambda: group_algebra(2, (4,)), 3),
    "F_2[C_2 x C_2]": (lambda: group_algebra(2, (2, 2)), 3),
    "UT_2(x)UT_2(F_2)": (lambda: ut2_squared_times(1), 5),
    "M_2(x)UT_2(x)UT_2(F_2)": (lambda: ut2_squared_times(2), 20),
    "M_3(x)UT_2(x)UT_2(F_2)": (lambda: ut2_squared_times(3), 45),
}


@pytest.mark.parametrize("name", KNOWN)
def test_known_dimensions(name):
    make, dim = KNOWN[name]
    assert len(_radical(make())) == dim


@pytest.mark.parametrize("name", [name for name in KNOWN if KNOWN[name][1] and KNOWN[name][0]().dim <= 36])
def test_rows_span_a_nilpotent_ideal(name):
    A = KNOWN[name][0]()
    J = _radical(A)
    span = Subgroup(J, A.moduli)
    assert ideal_closure(A, J) == span and is_nilpotent_ideal(A, span)


LARGE_P = {
    "UT_2(F_5)": lambda: upper_triangular_algebra(ZMod(5), 2),
    "UT_3(F_7)": lambda: upper_triangular_algebra(ZMod(7), 3),
    "UT_2(x)UT_2(F_11)": lambda: tensor_product(*[upper_triangular_algebra(ZMod(11), 2)] * 2),
    "M_2(F_5)": lambda: matrix_algebra(ZMod(5), 2),
    "F_5[t]/t^4": lambda: _truncated_polynomials(ZMod(5)),
    "UT_2(GF(49))": lambda: upper_triangular_algebra(GaloisField.default(7, 2), 2),
    "F_7[C_2 x C_2]": lambda: group_algebra(7, (2, 2)),
    # p = 2^61 - 1: the trace and the kernel run over exact integers
    "UT_2(F_(2^61 - 1))": lambda: upper_triangular_algebra(ZMod(2**61 - 1), 2),
    "M_2(F_(2^61 - 1))": lambda: matrix_algebra(ZMod(2**61 - 1), 2),
}


@pytest.mark.parametrize("name", LARGE_P)
def test_equals_the_trace_form_radical_when_p_exceeds_the_dimension(name):
    A = LARGE_P[name]()
    assert A.moduli[0] > A.dim
    assert Subgroup(_radical(A), A.moduli) == trace_form_radical(A)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(2, 3), p=st.sampled_from([2, 3, 5, 7]))
def test_twisted_upper_triangular_radicals(data, n, p):
    # the radical in random coordinates: nilpotent, of dimension n(n - 1)/2,
    # and the trace form's radical once p > D
    A = twisted(upper_triangular_algebra(ZMod(p), n), _draw_invertible(data, ZMod(p), n * (n + 1) // 2))
    A._verify_axioms()
    J = _radical(A)
    span = Subgroup(J, A.moduli)
    assert len(J) == n * (n - 1) // 2 and ideal_closure(A, J) == span and is_nilpotent_ideal(A, span)
    if p > A.dim:
        assert span == trace_form_radical(A)
