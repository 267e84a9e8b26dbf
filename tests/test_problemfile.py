import pytest

from lapdual import InputError, MultiPoly
from lapdual.problemfile import load_problem_file, parse_problem

DISC_DOC = {
    "dim": 2,
    "f": {"dim": 2, "terms": [{"coef": 1.0, "exps": [0, 0]}]},
    "g": {
        "dim": 2,
        "terms": [{"coef": 1.0, "exps": [2, 0]}, {"coef": 1.0, "exps": [0, 2]}],
    },
    "y": 1.0,
    "quadrature": {"sample_count": 1000, "seed": 3},
}


def test_parse_poly_mode():
    pf = parse_problem(DISC_DOC)
    assert pf.mode == "poly"
    assert pf.dim == 2
    assert pf.single_y and pf.y_values == (1.0,)
    assert pf.problem.f == MultiPoly.constant(2, 1.0)
    assert pf.problem.g.homogeneity_degree() == 2
    assert pf.quadrature.sample_count == 1000
    assert pf.quadrature.seed == 3
    assert pf.tau is None


def test_parse_y_grid():
    doc = dict(DISC_DOC)
    del doc["y"]
    doc["y_grid"] = [0.5, 1.0]
    pf = parse_problem(doc)
    assert not pf.single_y and pf.y_values == (0.5, 1.0)
    doc["y_grid"] = []
    assert parse_problem(doc).y_values == ()


def test_parse_simplex_mode():
    doc = {
        "simplex": True,
        "alpha_terms": [{"coef": 2.0, "alpha": [1.0, 0.0]}],
        "y": 1.0,
    }
    pf = parse_problem(doc)
    assert pf.mode == "simplex"
    assert pf.dim == 2
    assert pf.simplex_poly.terms[0].coef == 2.0


def test_parse_tau():
    doc = dict(DISC_DOC)
    doc["tau"] = -2.0
    assert parse_problem(doc).tau == -2.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(unknown=1),
        lambda d: d.update(y_grid=[1.0]),  # both y and y_grid
        lambda d: d.pop("y"),
        lambda d: d.update(y=-1.0),
        lambda d: d.update(y="one"),
        lambda d: d.update(dim=0),
        lambda d: d.update(dim=2.5),
        lambda d: d.pop("f"),
        lambda d: d.update(quadrature={"bogus": 1}),
        lambda d: d.update(quadrature={"nodes_per_axis": "many"}),
        lambda d: d.update(quadrature={"engine": "sorcery"}),
        lambda d: d.update(tau="low"),
        lambda d: d.update(alpha_terms=[{"coef": 1.0, "alpha": [0.0]}]),
        lambda d: d.update(f={"dim": 1, "terms": []}),
    ],
)
def test_parse_rejects_bad_documents(mutate):
    doc = {
        "dim": DISC_DOC["dim"],
        "f": dict(DISC_DOC["f"]),
        "g": dict(DISC_DOC["g"]),
        "y": DISC_DOC["y"],
        "quadrature": dict(DISC_DOC["quadrature"]),
    }
    mutate(doc)
    with pytest.raises(InputError):
        parse_problem(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"simplex": True, "y": 1.0},
        {"simplex": True, "alpha_terms": [], "y": 1.0},
        {"simplex": True, "alpha_terms": [{"coef": 1.0, "alpha": [-1.5]}], "y": 1.0},
        {"simplex": True, "alpha_terms": [{"coef": 1.0}], "y": 1.0},
        {"simplex": True, "alpha_terms": [{"coef": 1.0, "alpha": [0.0]}], "y": 1.0, "dim": 1},
        {"simplex": 1, "alpha_terms": [{"coef": 1.0, "alpha": [0.0]}], "y": 1.0},
        {
            "simplex": True,
            "alpha_terms": [
                {"coef": 1.0, "alpha": [0.0]},
                {"coef": 1.0, "alpha": [0.0, 0.0]},
            ],
            "y": 1.0,
        },
        [1, 2, 3],
    ],
)
def test_parse_rejects_bad_simplex_documents(doc):
    with pytest.raises(InputError):
        parse_problem(doc)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        load_problem_file(path)


@pytest.mark.parametrize("levels, name", [('"y": 1e400', '"y"'), ('"y_grid": [1.0, 1e400]', '"y_grid" entry')])
def test_load_refuses_an_infinite_level(levels, name, tmp_path):
    # JSON reads 1e400 as inf, whose lambda_y is 0: the polar engine then
    # took log 0 and the CLI printed a traceback.
    for mode in ('"simplex": true, "alpha_terms": [{"coef": 1.0, "alpha": [0.0]}]',
                 '"dim": 1, "f": {"dim": 1, "terms": [{"coef": 1.0, "exps": [0]}]}, '
                 '"g": {"dim": 1, "terms": [{"coef": 1.0, "exps": [4]}]}'):
        path = tmp_path / "level.json"
        path.write_text("{" + mode + ", " + levels + "}", encoding="utf-8")
        with pytest.raises(InputError, match=f"{name} must be a finite positive level, got inf"):
            load_problem_file(path)
        # The same level written as an integer is no float at all.
        path.write_text("{" + mode + ", " + levels.replace("1e400", "1" + "0" * 400) + "}", encoding="utf-8")
        with pytest.raises(InputError, match=f"{name} must be a number within the double range"):
            load_problem_file(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_problem_file(tmp_path / "absent.json")
