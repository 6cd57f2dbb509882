import os

import pytest

from ellog.algebra import field_make
from ellog.basis import basis_from_json, build_basis, find_basis
from ellog.curve import Curve, Point
from ellog.harvest import build_factor_base, read_relations
from ellog.solve import find_generator, read_logs


@pytest.fixture(scope="session")
def basis59():
    """The standard small instance: q = 5, k = 9, seed 0."""
    return find_basis(5, 1, 9, seed=0)


@pytest.fixture(scope="session")
def fb59(basis59):
    return build_factor_base(basis59, 3)


@pytest.fixture(scope="session")
def basis11():
    """Pinned larger instance for volume checks: q = 11, k = 13."""
    F11 = field_make(11, 1)
    curve = Curve(F11, 1, 6)
    P1 = Point.make(curve, F11, 2, 4)
    return build_basis(curve, P1, seed=0)


@pytest.fixture(scope="session")
def basis25():
    """A basis over F_{5^2}: its target field multiplies by the list
    kernel on the base field's tables, not by the packed product."""
    basis = find_basis(5, 2, 5, seed=0)
    assert basis.ext._kron is None
    return basis


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Full pipeline artifacts for the standard instance, built once.

    Runs the real CLI stages into a session directory and hands back the
    loaded objects the way a later command would see them.
    """
    from ellog.cli import main
    outdir = str(tmp_path_factory.mktemp("run59"))
    assert main(["search", "--p", "5", "--k", "9", "--seed", "0",
                 "--out", outdir]) == 0
    assert main(["basis", "--out", outdir]) == 0
    assert main(["harvest", "--out", outdir]) == 0
    assert main(["solve", "--out", outdir]) == 0
    assert main(["extend", "--out", outdir]) == 0
    with open(os.path.join(outdir, "basis.json")) as fh:
        basis = basis_from_json(fh.read())
    fb = build_factor_base(basis, 3)
    fb.extend_to(5)
    relations = read_relations(os.path.join(outdir, "relations.txt"), fb)
    table, logs = read_logs(os.path.join(outdir, "logs.txt"), basis, fb)
    g = find_generator(basis.ext, seed=0)
    return {
        "dir": outdir,
        "basis": basis,
        "fb": fb,
        "relations": relations,
        "table": table,
        "logs": logs,
        "g": g,
    }
