import pytest

from higgsnum import NSLattice, NSVector, SurfaceGeometry, presets


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
    # plane blown up in a point, the smallest lattice where the index
    # inequality and the signature reduction are not degenerate
    return SurfaceGeometry(
        lattice=NSLattice(2, ((1, 0), (0, -1))),
        canonical=NSVector((-3, 1)),
        polarization=NSVector((2, -1)),
        c2_top=4,
        name="blowup-p2",
    )
