"""The closed-Pfaff reference shared by the acceptance and geometry tests.

A row `omega` of polynomials over one chart is read as the 1-form
sum_j omega_j dx^j; it is closed when the grid of
`exterior_derivative_one_form` is zero.  The package itself never needs d of a 1-form, so this lives
with the tests that check closedness against it.
"""


def exterior_derivative_one_form(omega):
    """d(omega) as the antisymmetric grid (i,j) -> dω_j/dx^i - dω_i/dx^j."""
    n = len(omega)
    if n == 0 or any(p.dim != omega[0].dim for p in omega):
        raise ValueError("omega must be a non-empty row over one chart")
    return tuple(
        tuple(omega[j].partial(i) - omega[i].partial(j) for j in range(n))
        for i in range(n))


def grid_is_zero(grid):
    return all(p.is_zero for row in grid for p in row)
