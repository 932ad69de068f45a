"""The package's public surface, and the README's library example."""

import dataclasses
import importlib
import inspect
import math
import pathlib
import re

import crossdiff
from crossdiff import analysis, cli

MODULES = ("legendre", "coeffs", "truncation", "analysis", "cli")
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_exactly_the_documented_names():
    assert crossdiff.__all__ == [
        "gauss_rule",
        "iterate_derivative",
        "phi_matrix",
        "synthesize",
        "CoeffGrid",
        "NoiseSpec",
        "add_noise",
        "exact_coeffs",
        "load_grid",
        "lp_norm",
        "save_grid",
        "trapezoid_coeffs",
        "CrossSet",
        "SmoothnessParams",
        "build_cross",
        "cardinality_growth",
        "choose_gamma",
        "choose_n",
        "class_norm",
        "truncate",
        "CosFactor",
        "PiecewisePoly",
        "RateStudyResult",
        "TestFunction",
        "c_error",
        "example1_F",
        "example2_F",
        "l2_error",
        "make_class_function",
        "rate_study",
        "theoretical_slope",
        "__version__",
    ]
    for name in crossdiff.__all__:
        assert hasattr(crossdiff, name), name
    # a grid is its coefficients and their provenance, nothing more
    assert [f.name for f in dataclasses.fields(crossdiff.CoeffGrid)] == ["data", "provenance"]


def test_error_layer_takes_only_what_varies():
    # the Gauss rule's size, the C grid's points and the class member's
    # degree and eps are fixed inside the library, and a reference carries
    # its own breakpoints
    def names(obj):
        return list(inspect.signature(obj).parameters)

    assert names(analysis.ErrorEvaluator) == ["exact", "K", "J"]
    assert names(crossdiff.exact_coeffs) == ["f", "K", "J"]
    assert names(crossdiff.l2_error) == ["approx", "exact"]
    assert names(crossdiff.c_error) == ["approx", "exact"]
    assert names(crossdiff.make_class_function) == ["s", "mu1", "mu2"]


def test_every_public_name_is_defined_in_its_module():
    for layer in MODULES:
        mod = importlib.import_module(f"crossdiff.{layer}")
        assert len(set(mod.__all__)) == len(mod.__all__), layer
        for name in mod.__all__:
            assert name in vars(mod), f"{layer}.{name}"
            obj = vars(mod)[name]
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == mod.__name__, f"{layer}.{name}"


def test_readme_library_quick_reference_runs(tmp_path, monkeypatch):
    text = README.read_text()
    section = text[text.index("## Library quick reference"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert math.isfinite(namespace["err"])


def test_readme_config_file_runs(tmp_path, monkeypatch, capsys):
    # its comments sit on lines of their own: configparser keeps an inline
    # "; ..." as part of the value
    text = README.read_text()
    section = text[text.index("## Configuration files"):]
    (tmp_path / "readme.ini").write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["example1", "--config", "readme.ini"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "results" / "my-run" / "table.csv").is_file()


def test_readme_key_table_lists_every_config_key():
    # one row per key, except that mu1 and mu2 share one; a key added,
    # dropped or renamed in the schema fails here until the table follows
    text = README.read_text()
    section = text[text.index("## Configuration files"):]
    section = section[:section.index("\n## ", 1)]
    keys = []
    for row in re.findall(r"^\| (`\[.*?) \|", section, re.M):
        section_name, first = re.match(r"`\[(\w+)\] (\w+)`", row).groups()
        keys += [(section_name, key) for key in [first, *re.findall(r", `(\w+)`", row)]]
    assert sorted(keys) == sorted((f.section, f.key) for f in cli.FIELDS)
