import pytest

from higgsnum import NSLattice, NSVector, SurfaceGeometry, cli, pair, presets


# the 17 presets the identity tests sweep
PRESET_NAMES = ["p2", "p1xp1", *(f"hypersurface:{d}" for d in range(1, 7)),
                *(f"blowup:{k}" for k in range(9))]


@pytest.fixture
def plane():
    return presets.p2()


@pytest.fixture
def k3():
    return presets.hypersurface(4)


@pytest.fixture
def quintic():
    return presets.hypersurface(5)


@pytest.fixture
def blowup():
    return presets.blowup(1)


def clear_memos():
    """Empty the CLI's surface memos, so the next load validates again."""
    cli._preset.cache_clear()
    cli._parse_surface.cache_clear()


def partitions_at_most(n, k, cap=None):
    """Partitions of n into at most k parts, no part above cap, lazily and in
    decreasing lex order: each first part v from the largest down, while
    k parts of size v can still hold n, then the rest recursively."""
    if n == 0:
        yield ()
        return
    for v in range(n if cap is None else min(n, cap), 0, -1):
        if v * k < n:
            return
        for rest in partitions_at_most(n - v, k - 1, v):
            yield (v,) + rest


def characteristic_surface(rng, rank):
    """A random surface on U^T D U, D = diag(a, -b_1, ..), U unimodular.

    In the basis of D the vector c with c_k = D_k mod 2 is characteristic,
    so K = U^-1 c is; L = U^-1 e_0 has L^2 = a > 0, and c2 is chosen so
    that 12 divides K^2 + c2.  SurfaceGeometry checks all of it again.
    """
    d = [rng.randint(1, 4)] + [-rng.randint(1, 4) for _ in range(rank - 1)]
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * rank if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        m = rng.choice((-2, -1, 1, 2))
        # row operation on u, the inverse column operation on u_inv
        u[i] = [x + m * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= m * row[i]
    gram = tuple(
        tuple(sum(u[k][i] * d[k] * u[k][j] for k in range(rank)) for j in range(rank))
        for i in range(rank)
    )
    c = [dk % 2 + 2 * rng.randint(-1, 1) for dk in d]
    k = NSVector(tuple(sum(x * y for x, y in zip(row, c)) for row in u_inv))
    lattice = NSLattice(rank, gram)
    k2 = pair(lattice, k, k)
    c2 = 12 * rng.randint(-2, 4) - k2
    return SurfaceGeometry(lattice, k, NSVector(tuple(row[0] for row in u_inv)), c2,
                           name=f"random-rank-{rank}")
