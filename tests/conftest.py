import json

import pytest

from permdec import PermGroup, Permutation, io
from permdec.atlas import DEFAULT_DATA_DIR

C = Permutation.from_cycles


def cycles(n, *cyc):
    return C(n, cyc)


@pytest.fixture(scope="session")
def corpus_entries():
    return json.loads((DEFAULT_DATA_DIR / "corpus.json").read_text())


def corpus_group(entry):
    plinth = None
    if "plinth" in entry:
        plinth = io.group_from_json({"degree": entry["degree"], "generators": entry["plinth"]})
    return io.group_from_json(entry), plinth


@pytest.fixture(scope="session")
def s4():
    return PermGroup([cycles(4, (0, 1, 2, 3)), cycles(4, (0, 1))], name="S4")


@pytest.fixture(scope="session")
def a6():
    return PermGroup([cycles(6, (0, 1, 2, 3, 4)), cycles(6, (1, 2, 3, 4, 5))], name="A6")


@pytest.fixture(scope="session")
def klein():
    return PermGroup([cycles(4, (0, 1), (2, 3)), cycles(4, (0, 2), (1, 3))], name="V4")


@pytest.fixture(scope="session")
def s3s3():
    return PermGroup(
        [
            cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8)),
            cycles(9, (3, 6), (4, 7), (5, 8)),
            cycles(9, (0, 1, 2), (3, 4, 5), (6, 7, 8)),
            cycles(9, (1, 2), (4, 5), (7, 8)),
        ],
        name="S3xS3",
    )


@pytest.fixture(scope="session")
def a6_case():
    from permdec.atlas import load_case

    return load_case("A6_36")


@pytest.fixture(scope="session")
def m12_case():
    from permdec.atlas import load_case

    return load_case("M12_144")


@pytest.fixture(scope="session")
def sp62_case():
    from permdec.atlas import load_case

    return load_case("SP62_63")


@pytest.fixture(scope="session")
def a6_36(a6_case):
    """The degree-36 coset action of A6, with plinth = the image itself."""
    from permdec.structure import CosetAction, intersect

    inter = intersect(a6_case.subgroups["A"], a6_case.subgroups["B"])
    return CosetAction(a6_case.group, inter).image


@pytest.fixture(scope="session")
def m12_144(m12_case):
    from permdec.structure import CosetAction, intersect

    inter = intersect(m12_case.subgroups["A"], m12_case.subgroups["B"])
    return CosetAction(m12_case.group, inter).image
