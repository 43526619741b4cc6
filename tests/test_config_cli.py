import json
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdoe import CandidatePool, load_quantizer
from qdoe.cli import main
from qdoe.config import load_config, parse_config
from qdoe.errors import ConfigError
from qdoe.models import build_model, inline_groups
from qdoe.quantizer import save_pool

UNIT_SQUARE_INPUTS = {
    "groups": [
        {
            "name": "u",
            "kind": "independent",
            "columns": ["a", "b"],
            "marginals": [
                {"type": "uniform", "a": 0, "b": 1},
                {"type": "uniform", "a": 0, "b": 1},
            ],
        }
    ]
}


def write_config(tmp_path, name="config.json", **overrides):
    raw = {"version": 1, "seed": 42}
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path, raw


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


# ---------------------------------------------------------------------------
# config validation

def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({"version": 1, "seed": 1, "scheem": "lhs"})


def test_unsupported_version_rejected():
    with pytest.raises(ConfigError, match="version"):
        parse_config({"version": 2, "seed": 1})


def test_missing_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"version": 1})


def test_bad_scheme_rejected():
    with pytest.raises(ConfigError, match="scheme"):
        parse_config({"version": 1, "seed": 1, "scheme": "sobol"})


def test_nested_error_paths_are_reported():
    with pytest.raises(ConfigError, match="config.lloyd"):
        parse_config({"version": 1, "seed": 1, "lloyd": {"iterations": 5}})
    with pytest.raises(ConfigError, match="config.model: expected a mapping"):
        parse_config({"version": 1, "seed": 1, "model": "flood"})
    with pytest.raises(ConfigError, match=r"config.n\[1\]"):
        parse_config({"version": 1, "seed": 1, "n": [10, 0]})
    # inline groups are built when a command starts, from the declarations as written
    with pytest.raises(ConfigError, match=r"config.inputs.groups\[0\]"):
        inline_groups([{"name": "g", "kind": "copula", "columns": ["x"]}])
    with pytest.raises(ConfigError, match=r"config.inputs.groups\[0\].marginals\[0\]: uniform"):
        inline_groups([{"name": "u", "kind": "independent", "columns": ["x"],
                        "marginals": [{"type": "uniform", "a": 2, "b": 2}]}])
    for name, columns, where in (("a/b", ["x"], r"name: name 'a/b'"),
                                 ("g", ["x", "a,b"], r"columns\[1\]: name 'a,b'"),
                                 ("g", ["x", "weight"], r"columns\[1\]: name 'weight'")):
        group = {"name": name, "kind": "independent", "columns": columns,
                 "marginals": [{"type": "uniform", "a": 0, "b": 1}] * len(columns)}
        with pytest.raises(ConfigError, match=r"config.inputs.groups\[0\]." + where):
            inline_groups([group])


@pytest.mark.parametrize("section, where", [
    ({"kernels": {"bandwidth_rule": "fixed", "bandwidth": float("nan")}}, "kernels.bandwidth"),
    ({"kernels": {"bandwidth_rule": "fixed", "bandwidth": float("inf")}}, "kernels.bandwidth"),
    ({"lloyd": {"rel_tol": float("inf")}}, "lloyd.rel_tol"),
    ({"lloyd": {"rel_tol": 10**400}}, "lloyd.rel_tol"),
    ({"test": {"alpha": float("nan")}}, "test.alpha"),
], ids=["nan bandwidth", "infinite bandwidth", "infinite rel_tol", "huge integer rel_tol",
        "nan alpha"])
def test_config_numbers_are_finite(section, where):
    with pytest.raises(ConfigError, match=rf"config\.{where}: expected a finite number"):
        parse_config({"version": 1, "seed": 1, **section})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "1"])
def test_model_params_are_finite_numbers_named_by_path(value):
    with pytest.raises(ConfigError, match=r"config\.model\.params\.h: expected a"):
        build_model("vg_theta", {"h": value})


def test_model_params_list_what_the_model_accepts():
    with pytest.raises(ConfigError, match=re.escape(
            "config.model.params: unknown keys ['hh']; accepted: ['h', 'pool_csv']")):
        build_model("vg_theta", {"hh": 5})
    with pytest.raises(ConfigError, match=re.escape(
            "config.model.params.pool_csv: cannot load pool")):
        build_model("vg_theta", {"pool_csv": "missing.csv"})


def test_model_and_inline_inputs_are_exclusive():
    with pytest.raises(ConfigError, match="either a model or inline inputs"):
        parse_config(
            {"version": 1, "seed": 1, "model": {"name": "square"},
             "inputs": UNIT_SQUARE_INPUTS}
        )


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_nested_non_finite_constant_returns_2_and_writes_nothing(tmp_path, constant):
    inputs = {"groups": [{"name": "g", "kind": "independent", "columns": ["x"],
                          "marginals": [{"type": "normal", "mu": 0, "sigma": 1}]}]}
    path, _ = write_config(tmp_path, scheme="mc", n=4, inputs=inputs,
                           output_dir=str(tmp_path / "out"))
    path.write_text(path.read_text().replace('"mu": 0', f'"mu": {constant}'))
    assert constant in path.read_text()
    assert main(["sample", "--config", str(path)]) == 2
    assert not (tmp_path / "out" / "design_mc_n4.csv").exists()


UNIFORM = {"type": "uniform", "a": 0, "b": 1}


def copula_group(columns, correlation, name="g"):
    return {"name": name, "kind": "copula", "columns": columns,
            "marginals": [UNIFORM] * len(columns), "correlation": correlation}


@pytest.mark.parametrize("overrides", [
    {"shared_quantizer": "false"},
    {"shared_quantizer": 0},
    {"kernels": {"standardize_groups": "false"}},
    {"output_dir": 5},
    {"model": {"name": "vg_theta", "params": {"h": "abc"}}},
    {"model": {"name": "synthetic_screen", "params": {"rho": "x"}}},
    {"inputs": {"groups": [{"name": "g", "kind": "pool", "columns": ["x"], "pool_csv": 0}]}},
    {"inputs": {"groups": [{"name": "g", "kind": "pool", "columns": ["x"], "pool_csv": 987}]}},
    {"model": {"name": "vg_theta", "params": {"pool_csv": 0}}},
    {"model": {"name": "vg_theta", "params": {"pool_csv": 987}}},
    {"model": {"name": "vg_conductivity", "params": {"pool_csv": "missing.csv"}}},
    {"model": {"name": "vg_theta", "params": {"hh": 5}}},
    {"model": {"name": "flood", "params": {"rho": 0.9}}},
    {"model": {"name": ["flood"]}},
    {"model": "flood"},
    {"scheme": "qlhs", "inputs": {"groups": [
        copula_group(["x", "y"], [[1, 0.5], [0.5, 1]], name=["dep"]),
        {"name": "u", "kind": "independent", "columns": ["z"], "marginals": [UNIFORM]}]}},
    {"inputs": {"groups": [{"name": "u", "kind": "independent", "columns": ["a"],
                            "marginals": [{"type": ["uniform"], "a": 0, "b": 1}]}]}},
    {"inputs": {"groups": [{"name": "u", "kind": "independent", "columns": [["a"]],
                            "marginals": [UNIFORM]}]}},
    {"inputs": {"groups": [{"name": "u", "kind": "independent", "columns": [1],
                            "marginals": [UNIFORM]}]}},
    {"inputs": {"groups": [copula_group(["x", "y"], [[1, 0.5], [0.5]])]}},
    {"inputs": {"groups": [copula_group(["x", "y"], [[1, "a"], ["a", 1]])]}},
    {"inputs": {"groups": [copula_group(["x", "y"], [[1, 0.5], [0.2, 1]])]}},
    {"inputs": {"groups": [copula_group(["x", "y", "z"],
                                        [[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]])]}},
    {"inputs": {"groups": [{"name": "u", "kind": "independent", "columns": ["a"],
                            "marginals": [{"type": "uniform", "a": 2, "b": 2}]}]}},
    {"inputs": {"groups": [{"name": "u", "kind": "independent", "columns": ["a"],
                            "marginals": [{"type": "truncated", "lo": 50, "hi": 60, "inner": {
                                "type": "normal", "mu": 0, "sigma": 1}}]}]}},
    *({"inputs": {"groups": [{"name": "u", "kind": "independent", "columns": ["a", column],
                              "marginals": [UNIFORM, UNIFORM]}]}}
      for column in ("a,b", "c\nd", "", "e#f")),
    *({"inputs": {"groups": [{"name": name, "kind": "independent", "columns": ["a"],
                              "marginals": [UNIFORM]}]}}
      for name in ("a/b", "a\\b", "", "g\r")),
    {"inputs": {"groups": [{"name": "u", "kind": "independent", "columns": ["weight", "b"],
                            "marginals": [UNIFORM, UNIFORM]}]}},
    {"n": [5, 5]},
    {"inputs": {"groups": [{**copula_group(["x", "y"], [[1, 0.9], [0.9, 1]]),
                            "kind": "independent"}]}},
    {"inputs": {"groups": [{"name": "u", "kind": "independent", "columns": ["a"],
                            "marginals": [UNIFORM], "pool_csv": "nope.csv"}]}},
    {"inputs": {"groups": [{**copula_group(["x", "y"], [[1, 0.9], [0.9, 1]]),
                            "pool_csv": "nope.csv"}]}},
    {"inputs": {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                            "pool_csv": "nope.csv", "marginals": [UNIFORM]}]}},
], ids=["shared text", "shared integer", "standardize text", "output_dir integer",
        "vg_theta h text", "synthetic_screen rho text", "pool group pool_csv 0",
        "pool group pool_csv 987", "vg_theta pool_csv 0", "vg_theta pool_csv 987",
        "vg pool_csv missing file", "vg_theta unknown param", "flood unknown param",
        "model name list", "model string", "group name list", "distribution type list",
        "column name list", "column name integer", "correlation ragged",
        "correlation text", "correlation not symmetric", "correlation not positive definite",
        "uniform empty interval", "truncation without mass", "column name with comma",
        "column name with line break", "empty column name", "column name with hash",
        "group name with slash", "group name with backslash", "empty group name",
        "group name with carriage return", "column named weight", "repeated size",
        "independent with correlation", "independent with pool_csv", "copula with pool_csv",
        "pool with marginals"])
def test_config_value_of_wrong_type_returns_2_and_writes_nothing(tmp_path, monkeypatch,
                                                                 overrides):
    monkeypatch.chdir(tmp_path)  # a relative output_dir would land here
    raw = {"scheme": "mc", "n": 4, "output_dir": "out", **overrides}
    if "model" not in raw:
        raw.setdefault("inputs", UNIT_SQUARE_INPUTS)
    path, _ = write_config(tmp_path, **raw)
    assert main(["sample", "--config", str(path)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def independent(*marginals):
    return {"name": "u", "kind": "independent", "columns": [f"x{i}" for i in range(len(marginals))],
            "marginals": list(marginals)}


NORMAL = {"type": "normal", "mu": 0, "sigma": 1}
GROUP = "config.inputs.groups[0]"
MARGINAL = f"{GROUP}.marginals[0]"


@pytest.mark.parametrize("group, message", [
    (independent({**NORMAL, "scale": 2}), f"{MARGINAL}: unknown keys ['scale']; accepted: "),
    (independent({**NORMAL, "type": "gaussian"}), f"{MARGINAL}.type: unknown law 'gaussian'"),
    (independent({"type": "normal", "mu": 0}), f"{MARGINAL}: missing key 'sigma'"),
    (independent({**NORMAL, "mu": "abc"}), f"{MARGINAL}.mu: expected a number"),
    (independent({**NORMAL, "mu": "0"}), f"{MARGINAL}.mu: expected a number"),
    (independent({**NORMAL, "mu": [0]}), f"{MARGINAL}.mu: expected a number"),
    (independent({**UNIFORM, "b": True}), f"{MARGINAL}.b: expected a number"),
    (independent({"type": "truncated", "inner": NORMAL, "lo": "x"}),
     f"{MARGINAL}.lo: expected a number"),
    (independent(UNIFORM, {"type": "truncated", "inner": {**NORMAL, "sigma": "1"}}),
     f"{GROUP}.marginals[1].inner.sigma: expected a number"),
    (independent({**UNIFORM, "b": 0}), f"{MARGINAL}: uniform requires a < b, got [0.0, 0.0]"),
    ({**copula_group(["x", "y"], [[1, 0.9], [0.9, 1]]), "kind": "independent"},
     f"{GROUP}: unknown keys ['correlation']"),
    ({**independent(UNIFORM), "pool_csv": "pool.csv"}, f"{GROUP}: unknown keys ['pool_csv']"),
    ({**copula_group(["x", "y"], [[1, 0.9], [0.9, 1]]), "pool_csv": "pool.csv"},
     f"{GROUP}: unknown keys ['pool_csv']"),
    ({"name": "g", "kind": "pool", "columns": ["x"], "pool_csv": "pool.csv",
      "marginals": [UNIFORM]}, f"{GROUP}: unknown keys ['marginals']"),
    ({"name": "g", "kind": "generator", "columns": ["x"]}, f"{GROUP}.kind: expected one of"),
], ids=["unknown key", "unknown law", "missing parameter", "text", "numeric text", "list",
        "bool", "truncation bound", "inner parameter", "law's own check",
        "independent with correlation", "independent with pool_csv", "copula with pool_csv",
        "pool with marginals", "generator"])
def test_rejected_declaration_returns_2_and_names_its_path(tmp_path, monkeypatch, capsys,
                                                          group, message):
    monkeypatch.chdir(tmp_path)
    # a readable one-column pool, so that a pool_csv fails only by its key
    save_pool(CandidatePool(np.arange(10.0)[:, None]), tmp_path / "pool.csv")
    path, _ = write_config(tmp_path, scheme="mc", n=4, output_dir="out",
                           inputs={"groups": [group]})
    assert main(["sample", "--config", str(path)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "pool.csv"]


# ---------------------------------------------------------------------------
# sample command

def test_sample_lhs_is_deterministic_and_stratified(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="lhs", n=4, inputs=UNIT_SQUARE_INPUTS,
        output_dir=str(tmp_path / "out"),
    )
    assert main(["sample", "--config", str(path)]) == 0
    out = tmp_path / "out" / "design_lhs_n4.csv"
    header, rows = read_rows(out)
    assert header == ["a", "b", "weight"]
    for j in range(2):
        assert sorted(np.floor(rows[:, j] * 4).astype(int)) == [0, 1, 2, 3]
    first = out.read_bytes()
    assert main(["sample", "--config", str(path)]) == 0
    assert out.read_bytes() == first  # byte-identical rerun


def test_sample_header_embeds_config_hash_and_seed(tmp_path):
    path, raw = write_config(
        tmp_path, scheme="lhs", n=2, inputs=UNIT_SQUARE_INPUTS,
        output_dir=str(tmp_path / "out"),
    )
    main(["sample", "--config", str(path)])
    text = (tmp_path / "out" / "design_lhs_n2.csv").read_text()
    assert "config_hash=" in text and "seed=42" in text


def test_seed_override_changes_output_and_hash(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="lhs", n=2, inputs=UNIT_SQUARE_INPUTS,
        output_dir=str(tmp_path / "out"),
    )
    main(["sample", "--config", str(path)])
    base = (tmp_path / "out" / "design_lhs_n2.csv").read_text()
    main(["sample", "--config", str(path), "--seed", "43"])
    other = (tmp_path / "out" / "design_lhs_n2.csv").read_text()
    assert base != other and "seed=43" in other


def test_sample_rq_flood_design_weights_sum_to_one(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="rq", n=10, pool_size=1200,
        lloyd={"restarts": 1, "max_iter": 30, "rel_tol": 1e-6},
        model={"name": "flood"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["sample", "--config", str(path)]) == 0
    header, rows = read_rows(tmp_path / "out" / "design_rq_n10.csv")
    assert header == ["Q", "Ks", "Zv", "Zm", "Hd", "Cb", "L", "B", "weight"]
    assert rows.shape == (10, 9)
    assert rows[:, -1].sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_invalid_config_returns_2_and_writes_nothing(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="q2lhs", n=4, repetitions=5,
        model={"name": "x2y"},  # only one dependent group: q2lhs impossible
        output_dir=str(tmp_path / "out"),
    )
    assert main(["sample", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# quantize command and artifact reuse

def test_quantize_known_pool_and_reload(tmp_path):
    pool_csv = tmp_path / "pool.csv"
    pool_csv.write_text("x\n0.0\n0.1\n10.0\n10.1\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                          "pool_csv": str(pool_csv)}]}
    path, _ = write_config(
        tmp_path, inputs=inputs, n_cells=2, pool_size=4,
        output_dir=str(tmp_path / "out"),
    )
    assert main(["quantize", "--config", str(path)]) == 0
    artifact = tmp_path / "out" / "quantizer_g_n2.csv"
    quantizer = load_quantizer(artifact)
    assert sorted(quantizer.centroids.ravel().tolist()) == pytest.approx([0.05, 10.05])
    reread = load_quantizer(artifact)
    assert np.array_equal(reread.probabilities, quantizer.probabilities)


def test_quantize_header_counts_lloyd_updates(tmp_path):
    # three updates on a 2000-point pool into 20 cells stop at the cap, far
    # from a fixed point; the initial distortion is not an update
    path, _ = write_config(
        tmp_path, model={"name": "flood"}, group="channel", n_cells=20, pool_size=2000,
        lloyd={"max_iter": 3, "rel_tol": 0, "restarts": 1}, output_dir=str(tmp_path / "out"),
    )
    assert main(["quantize", "--config", str(path)]) == 0
    header = (tmp_path / "out" / "quantizer_channel_n20.csv").read_text().splitlines()
    assert "# group=channel restarts=1 iterations=3" in header


def test_quantize_too_many_cells_fails(tmp_path):
    pool_csv = tmp_path / "pool.csv"
    pool_csv.write_text("x\n0.0\n0.1\n10.0\n10.1\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                          "pool_csv": str(pool_csv)}]}
    path, _ = write_config(tmp_path, inputs=inputs, n_cells=5,
                           output_dir=str(tmp_path / "out"))
    assert main(["quantize", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_q2lhs_mismatched_quantizer_files_fail(tmp_path):
    pool_a = tmp_path / "pool_a.csv"
    pool_a.write_text("x\n" + "\n".join(str(v / 10) for v in range(40)) + "\n")
    pool_b = tmp_path / "pool_b.csv"
    pool_b.write_text("y\n" + "\n".join(str(v / 7) for v in range(40)) + "\n")
    inputs = {"groups": [
        {"name": "ga", "kind": "pool", "columns": ["x"], "pool_csv": str(pool_a)},
        {"name": "gb", "kind": "pool", "columns": ["y"], "pool_csv": str(pool_b)},
    ]}
    for name, n_cells in (("ga", 4), ("gb", 6)):
        cfg, _ = write_config(tmp_path, name=f"q_{name}.json", inputs=inputs,
                              group=name, n_cells=n_cells,
                              output_dir=str(tmp_path / "art"))
        assert main(["quantize", "--config", str(cfg)]) == 0
    sample_cfg, _ = write_config(
        tmp_path, name="sample.json", scheme="q2lhs", n=4, inputs=inputs,
        quantizer_files={"ga": str(tmp_path / "art" / "quantizer_ga_n4.csv"),
                         "gb": str(tmp_path / "art" / "quantizer_gb_n6.csv")},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["sample", "--config", str(sample_cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_quantizer_files_round_trip_through_sampling(tmp_path):
    pool_csv = tmp_path / "pool.csv"
    rows = np.random.default_rng(0).standard_normal(60)
    pool_csv.write_text("x\n" + "\n".join(repr(float(v)) for v in rows) + "\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                          "pool_csv": str(pool_csv)}]}
    qcfg, _ = write_config(tmp_path, name="q.json", inputs=inputs, n_cells=5,
                           output_dir=str(tmp_path / "art"))
    assert main(["quantize", "--config", str(qcfg)]) == 0
    scfg, _ = write_config(
        tmp_path, name="s.json", scheme="rq", n=5, inputs=inputs,
        quantizer_files={"g": str(tmp_path / "art" / "quantizer_g_n5.csv")},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["sample", "--config", str(scfg)]) == 0
    header, out_rows = read_rows(tmp_path / "out" / "design_rq_n5.csv")
    assert out_rows.shape == (5, 2)
    assert out_rows[:, 1].sum() == pytest.approx(1.0, abs=1e-12)


def test_quantizer_file_is_checked_against_every_size_before_writing(tmp_path):
    # a 5-cell file serves n=5 but not n=4, which the command sees before it
    # writes the n=5 design
    pool_csv = tmp_path / "pool.csv"
    rows = np.random.default_rng(0).standard_normal(60)
    pool_csv.write_text("x\n" + "\n".join(repr(float(v)) for v in rows) + "\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                          "pool_csv": str(pool_csv)}]}
    qcfg, _ = write_config(tmp_path, name="q.json", inputs=inputs, n_cells=5,
                           output_dir=str(tmp_path / "art"))
    assert main(["quantize", "--config", str(qcfg)]) == 0
    scfg, _ = write_config(
        tmp_path, name="s.json", scheme="rq", n=[5, 4], inputs=inputs,
        quantizer_files={"g": str(tmp_path / "art" / "quantizer_g_n5.csv")},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["sample", "--config", str(scfg)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, quantizer_files", [
    ({"name": "flood"}, {"chanel": "nope.csv"}),
    ({"name": "flood"}, {"channel": "nope.csv"}),  # a copula group has no fixed pool
    (None, {"g": 3}),
], ids=["misspelled group", "not a pool group", "path not a string"])
def test_bad_quantizer_files_entry_returns_2_and_writes_nothing(tmp_path, model,
                                                                quantizer_files):
    pool_csv = tmp_path / "pool.csv"
    pool_csv.write_text("x\n0.0\n0.1\n10.0\n10.1\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                          "pool_csv": str(pool_csv)}]}
    source = {"model": model} if model else {"inputs": inputs}
    path, _ = write_config(tmp_path, scheme="rq", n=2, pool_size=200,
                           lloyd={"restarts": 1, "max_iter": 10},
                           quantizer_files=quantizer_files,
                           output_dir=str(tmp_path / "out"), **source)
    assert main(["sample", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def _claims(lines, text):
    """``lines`` with the header's claims line replaced by ``# text``."""
    claims = lines.index("centroids") - 1
    assert lines[claims].startswith("# n_cells=")
    return lines[:claims] + [f"# {text}"] + lines[claims + 1:]


def _swap_two_cells(assignments):
    """``assignments`` with the first two that differ swapped: the cell counts stay."""
    j = next(j for j, a in enumerate(assignments) if a != assignments[0])
    swapped = list(assignments)
    swapped[0], swapped[j] = assignments[j], assignments[0]
    return swapped


def _pool_lines(rows):
    return ["x", *(repr(float(v)) for v in rows)]


@pytest.mark.parametrize("section, edit", [
    ("assignments", lambda rest: ["0"] * len(rest)),  # every pool point in cell 0
    ("probabilities", lambda rest: ["0.9"] + rest[1:]),
    ("probabilities", lambda rest: ["abc"] + rest[1:]),
    (None, lambda lines: _claims(lines, "n_cells=7 d=9 pool_size=1000")),
    (None, lambda lines: _claims(lines, "distortion=0.5")),
    (None, lambda lines: _claims(lines, "n_cells=5 d=1 pool_size=60 distortion=0.5")),
    ("assignments", _swap_two_cells),
    ("pool", lambda lines: _pool_lines(np.random.default_rng(1).standard_normal(60))),
], ids=["empty cells", "edited probability", "non-numeric line", "false header claims",
        "no header claims", "false distortion claim", "assignments swapped across cells",
        "another pool of the same size"])
def test_tampered_quantizer_file_fails_and_writes_nothing(tmp_path, section, edit):
    pool_csv = tmp_path / "pool.csv"
    pool_csv.write_text("\n".join(_pool_lines(np.random.default_rng(0).standard_normal(60))) + "\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                          "pool_csv": str(pool_csv)}]}
    qcfg, _ = write_config(tmp_path, name="q.json", inputs=inputs, n_cells=5,
                           output_dir=str(tmp_path / "art"))
    assert main(["quantize", "--config", str(qcfg)]) == 0
    artifact = tmp_path / "art" / "quantizer_g_n5.csv"
    edited = pool_csv if section == "pool" else artifact
    lines = edited.read_text().splitlines()
    first = 0 if section in (None, "pool") else lines.index(section) + 1
    lines[first:] = edit(lines[first:])
    edited.write_text("\n".join(lines) + "\n")
    scfg, _ = write_config(tmp_path, name="s.json", scheme="rq", n=5, inputs=inputs,
                           quantizer_files={"g": str(artifact)},
                           output_dir=str(tmp_path / "out"))
    assert main(["sample", "--config", str(scfg)]) == 2
    assert not (tmp_path / "out" / "design_rq_n5.csv").exists()


def test_missing_inline_pool_csv_fails_when_the_command_starts(tmp_path, capsys):
    # loading the config reads no pool file; the command reads it before writing
    group = {"name": "g", "kind": "pool", "columns": ["x"], "pool_csv": str(tmp_path / "no.csv")}
    path, _ = write_config(tmp_path, scheme="mc", n=2, inputs={"groups": [group]},
                           output_dir=str(tmp_path / "out"))
    assert load_config(path).inputs == (group,)
    assert main(["sample", "--config", str(path)]) == 2
    assert "config.inputs.groups[0].pool_csv: cannot load pool" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["abc", "0.5,1.0"], ids=["non-numeric", "extra column"])
def test_malformed_pool_csv_fails_and_writes_nothing(tmp_path, line):
    pool_csv = tmp_path / "pool.csv"
    pool_csv.write_text(f"x\n0.0\n0.1\n{line}\n10.1\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                          "pool_csv": str(pool_csv)}]}
    path, _ = write_config(tmp_path, scheme="mc", n=2, inputs=inputs,
                           output_dir=str(tmp_path / "out"))
    assert main(["sample", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# estimate command

def test_estimate_zero_repetitions_rejected(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="mc", n=10, repetitions=0,
        model={"name": "square"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["estimate", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_estimate_writes_repetitions_and_summary(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="rq", n=[5, 10], repetitions=8, pool_size=400,
        lloyd={"restarts": 1, "max_iter": 25, "rel_tol": 1e-6},
        model={"name": "square"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["estimate", "--config", str(path), "--threads", "1"]) == 0
    for n in (5, 10):
        header, rows = read_rows(tmp_path / "out" / f"estimates_rq_square_n{n}.csv")
        assert header == ["seed", "estimate"]
        assert rows.shape == (8, 2)
    payload = json.loads((tmp_path / "out" / "summary_rq_square.json").read_text())
    assert payload["scheme"] == "rq"
    assert [entry["n"] for entry in payload["results"]] == [5, 10]
    for entry in payload["results"]:
        assert set(entry) >= {"mean", "variance", "percentile_2_5", "percentile_97_5"}
    assert payload["meta"]["seed"] == 42


def test_estimate_end_to_end_determinism(tmp_path):
    for repetitions in (6, 2):  # 2 < 3 workers: the pool is capped at the repetitions
        path, _ = write_config(
            tmp_path, scheme="qlhs", n=6, repetitions=repetitions, pool_size=300,
            lloyd={"restarts": 1, "max_iter": 25, "rel_tol": 1e-6},
            model={"name": "x2y"}, output_dir=str(tmp_path / "out"),
        )
        outputs = [tmp_path / "out" / name
                   for name in ("estimates_qlhs_x2y_n6.csv", "summary_qlhs_x2y.json")]
        runs = []
        for threads in ("1", "2", "3"):
            assert main(["estimate", "--config", str(path), "--threads", threads]) == 0
            runs.append([out.read_bytes() for out in outputs])
        assert runs[1] == runs[0] and runs[2] == runs[0]


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**31 - 1),
       case=st.sampled_from([("x2y", "qlhs"), ("x1px2_sq_y", "rq")]))
def test_estimate_outputs_do_not_depend_on_the_worker_count(tmp_path, seed, case):
    model, scheme = case
    out = tmp_path / f"out_{seed}_{model}"
    path, _ = write_config(
        tmp_path, seed=seed, scheme=scheme, n=5, repetitions=4, pool_size=300,
        lloyd={"restarts": 1, "max_iter": 25, "rel_tol": 1e-6},
        model={"name": model}, output_dir=str(out),
    )
    outputs = [out / f"estimates_{scheme}_{model}_n5.csv", out / f"summary_{scheme}_{model}.json"]
    runs = []
    for threads in ("1", "2", "3"):
        assert main(["estimate", "--config", str(path), "--threads", threads]) == 0
        assert multiprocessing.active_children() == []
        runs.append([output.read_bytes() for output in outputs])
    assert runs[1] == runs[0] and runs[2] == runs[0]


def write_vg_pool(path, rows, constant_theta_r=False):
    from qdoe.models import vg_pool

    points = vg_pool(rows, np.random.default_rng(0)).points
    if constant_theta_r:
        points[:, 0] = 0.01
    save_pool(CandidatePool(points), path,
              column_names=("theta_r", "theta_s", "alpha", "n", "k_sat"))


def test_impossible_estimate_fails_before_forking_or_writing(tmp_path):
    # the fixed 60-row pool cannot hold 100 cells, which the command sees
    # before it makes the output directory or starts a worker
    write_vg_pool(tmp_path / "vg_pool.csv", 60)
    path, _ = write_config(
        tmp_path, scheme="rq", n=100, repetitions=4,
        model={"name": "vg_theta", "params": {"pool_csv": str(tmp_path / "vg_pool.csv")}},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["estimate", "--config", str(path), "--threads", "2"]) == 2
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []


def test_estimate_error_inside_a_repetition_exits_3_without_output(tmp_path):
    # a constant theta_r column has a degenerate marginal: only the lhsd
    # copula fit inside each repetition sees it, in a worker process
    write_vg_pool(tmp_path / "vg_pool.csv", 60, constant_theta_r=True)
    path, _ = write_config(
        tmp_path, scheme="lhsd", n=10, repetitions=4,
        model={"name": "vg_theta", "params": {"pool_csv": str(tmp_path / "vg_pool.csv")}},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["estimate", "--config", str(path), "--threads", "2"]) == 3
    assert list(tmp_path.glob("out/estimates_*.csv")) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv", [
    ["estimate", "--threads", "0"],
    ["estimate", "--threads", "-5"],
    ["estimate", "--threads", "two"],
    ["hsic", "--threads", "0"],
    ["sample", "--shared-quantizer"],
    ["hsic", "--shared-quantizer"],
    ["quantize", "--shared-quantizer"],
], ids=["threads 0", "threads -5", "threads text", "hsic threads 0", "shared on sample",
        "shared on hsic", "shared on quantize"])
def test_bad_flag_is_a_usage_error_and_writes_nothing(tmp_path, capsys, argv):
    path, _ = write_config(tmp_path, scheme="mc", n=4, repetitions=2, n_cells=2,
                           model={"name": "square"}, output_dir=str(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(path)])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_log_level_is_a_usage_error_before_the_config_is_read(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setenv("QDOE_LOG", "foo")
    # the config file does not exist: the level is checked first
    assert main(["sample", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "QDOE_LOG" in err and "'FOO'" in err
    assert [p.name for p in tmp_path.iterdir()] == []


@pytest.mark.parametrize("level, known", [("foo", False), ("10", False), ("warn", True),
                                          ("Fatal", True), ("notset", True)])
def test_log_level_check_does_not_need_python_3_11(tmp_path, capsys, monkeypatch, level,
                                                   known):
    # logging.getLevelNamesMapping is new in Python 3.11; the package supports 3.10
    monkeypatch.delattr("logging.getLevelNamesMapping", raising=False)
    monkeypatch.setenv("QDOE_LOG", level)
    # a known level gets past the check and fails on the missing config file instead
    assert main(["sample", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:" if known else "usage error: unknown QDOE_LOG")


def test_shared_quantizer_estimate_is_thread_count_independent(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="qlhs", n=[5, 8], repetitions=6, pool_size=300,
        lloyd={"restarts": 1, "max_iter": 25, "rel_tol": 1e-6},
        model={"name": "x2y"}, output_dir=str(tmp_path / "out"),
    )
    outputs = [tmp_path / "out" / name for name in
               ("estimates_qlhs_x2y_n5.csv", "estimates_qlhs_x2y_n8.csv", "summary_qlhs_x2y.json")]
    runs = []
    for threads in ("1", "2"):
        assert main(["estimate", "--config", str(path), "--shared-quantizer",
                     "--threads", threads]) == 0
        runs.append([out.read_bytes() for out in outputs])
    assert runs[0] == runs[1]
    assert json.loads(runs[0][2])["shared_quantizer"] is True


def test_shared_quantizer_rq_checks_the_quantizer_file(tmp_path):
    # the fixed pool and its quantizer file resolve as in the unshared mode,
    # so a 7-cell file cannot serve a 5-point design in either mode
    pool_csv = tmp_path / "vg_pool.csv"
    write_vg_pool(pool_csv, 60)
    model = {"name": "vg_theta", "params": {"pool_csv": str(pool_csv)}}
    qcfg, _ = write_config(tmp_path, name="q.json", model=model, n_cells=7,
                           lloyd={"restarts": 1, "max_iter": 25},
                           output_dir=str(tmp_path / "art"))
    assert main(["quantize", "--config", str(qcfg)]) == 0
    ecfg, _ = write_config(
        tmp_path, name="e.json", scheme="rq", n=5, repetitions=2, model=model,
        quantizer_files={"vg": str(tmp_path / "art" / "quantizer_vg_n7.csv")},
        output_dir=str(tmp_path / "out"),
    )
    for shared in ([], ["--shared-quantizer"]):
        assert main(["estimate", "--config", str(ecfg), "--threads", "1", *shared]) == 2
        assert not (tmp_path / "out").exists()


def test_quantizer_file_is_loaded_once_per_command(tmp_path, monkeypatch):
    import qdoe.runner

    pool_csv = tmp_path / "vg_pool.csv"
    write_vg_pool(pool_csv, 60)
    model = {"name": "vg_theta", "params": {"pool_csv": str(pool_csv)}}
    qcfg, _ = write_config(tmp_path, name="q.json", model=model, n_cells=5,
                           lloyd={"restarts": 1, "max_iter": 25},
                           output_dir=str(tmp_path / "art"))
    assert main(["quantize", "--config", str(qcfg)]) == 0
    ecfg, _ = write_config(
        tmp_path, name="e.json", scheme="rq", n=5, repetitions=6, model=model,
        quantizer_files={"vg": str(tmp_path / "art" / "quantizer_vg_n5.csv")},
        output_dir=str(tmp_path / "out"),
    )
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_quantizer(path)

    monkeypatch.setattr(qdoe.runner, "load_quantizer", counting_load)
    assert main(["estimate", "--config", str(ecfg), "--threads", "1"]) == 0
    assert calls == [str(tmp_path / "art" / "quantizer_vg_n5.csv")]


def test_invalid_pool_rows_are_reported_once(tmp_path, caplog):
    # the model, and with it its pool_csv, is built once per command
    pool_csv = tmp_path / "vg_pool.csv"
    write_vg_pool(pool_csv, 60)
    lines = pool_csv.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    lines[first] = "0.9," + lines[first].split(",", 1)[1]  # theta_r above theta_s
    pool_csv.write_text("\n".join(lines) + "\n")
    path, _ = write_config(
        tmp_path, scheme="mc", n=4,
        model={"name": "vg_theta", "params": {"pool_csv": str(pool_csv)}},
        output_dir=str(tmp_path / "out"),
    )
    with caplog.at_level("WARNING", logger="qdoe"):
        assert main(["sample", "--config", str(path)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "dropped 1 physically invalid retention rows from pool_csv"
    ]


# ---------------------------------------------------------------------------
# hsic command

def test_hsic_permutation_floor_rejected(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="mc", n=50, test={"permutations": 99},
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["hsic", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [[1], [50, 1]], ids=["n 1", "n 50 then 1"])
def test_hsic_design_size_below_two_rejected(tmp_path, capsys, n):
    path, _ = write_config(
        tmp_path, scheme="mc", n=n, test={"permutations": 100},
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["hsic", "--config", str(path)]) == 2
    assert "config.n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hsic_unknown_group_column_rejected(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="mc", n=50, test={"permutations": 100},
        hsic_groups=[["x1"], ["x2", "nope"]],
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["hsic", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("groups, path", [
    ([["x1"], ["x1"]], r"config\.hsic_groups\[1\]: repeats the columns of config\.hsic_groups\[0\]"),
    ([["x1"], ["x2", "x1"], ["x3"], ["x1", "x2"]],
     r"config\.hsic_groups\[3\]: repeats the columns of config\.hsic_groups\[1\]"),
    ([["x1", "x1"], ["x1"]], r"config\.hsic_groups\[0\]: names a column more than once"),
    ([["x1", "x1"], ["x2"]], r"config\.hsic_groups\[0\]: names a column more than once"),
    ([["x1", 3]], r"config\.hsic_groups\[0\]: expected a non-empty list of column names"),
], ids=["same entry", "same set in another order", "same set with a repeated name",
        "repeated name", "non-string name"])
def test_hsic_repeated_groups_rejected(tmp_path, capsys, groups, path):
    cfg, _ = write_config(
        tmp_path, scheme="mc", n=50, test={"permutations": 100}, hsic_groups=groups,
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["hsic", "--config", str(cfg)]) == 2
    assert re.search(path, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_hsic_writes_screening_table(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="qlhs", n=80, pool_size=600,
        lloyd={"restarts": 1, "max_iter": 20, "rel_tol": 1e-6},
        test={"permutations": 100, "alpha": 0.05},
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["hsic", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "screening_qlhs_synthetic_screen_n80.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "input,hsic,p_value,decision"
    names = [row.split(",")[0] for row in data[1:]]
    assert names == ["x1", "x2", "x3", "x4", "x5", "w"]
    for row in data[1:]:
        decision = row.split(",")[3]
        assert decision in ("dependent", "independent")


def test_hsic_explicit_groups(tmp_path):
    path, _ = write_config(
        tmp_path, scheme="mc", n=60,
        test={"permutations": 100, "alpha": 0.05},
        hsic_groups=[["x1", "x2"], ["w1", "w2", "w3"]],
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["hsic", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "screening_mc_synthetic_screen_n60.csv").read_text().splitlines()
    names = [l.split(",")[0] for l in lines if not l.startswith("#")][1:]
    assert names == ["x1+x2", "w1+w2+w3"]


def test_hsic_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # n^2 = 22 500 is past the length at which OpenBLAS splits a dot product
    # across its threads, so a statistic summed by one such call would change
    # its last bits with the thread count
    import os
    import subprocess
    import sys

    path, _ = write_config(
        tmp_path, scheme="mc", n=150, seed=7, test={"permutations": 100},
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    table = tmp_path / "out" / "screening_mc_synthetic_screen_n150.csv"
    written = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-m", "qdoe.cli", "hsic", "--config", str(path)],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        written[threads] = table.read_bytes()
    assert written["1"] == written["2"]


@pytest.mark.parametrize("kernels", [
    {"bandwidth_rule": "bogus"},
    {"bandwidth_rule": "fixed"},
    {"bandwidth_rule": "fixed", "bandwidth": 0},
])
def test_hsic_invalid_kernels_return_2_and_write_nothing(tmp_path, kernels):
    path, _ = write_config(
        tmp_path, scheme="mc", n=50, kernels=kernels, test={"permutations": 100},
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["hsic", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kernels", [
    {"bandwidth": 0.05},
    {"bandwidth_rule": "median", "bandwidth": 0.05},
    {"bandwidth_rule": "std", "bandwidth": 1.0},
], ids=["default rule", "median", "std"])
def test_hsic_bandwidth_outside_the_fixed_rule_rejected(tmp_path, capsys, kernels):
    path, _ = write_config(
        tmp_path, scheme="mc", n=50, kernels=kernels, test={"permutations": 100},
        model={"name": "synthetic_screen"}, output_dir=str(tmp_path / "out"),
    )
    assert main(["hsic", "--config", str(path)]) == 2
    assert "config.kernels: a bandwidth is used only by the fixed rule" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "nope.json")]) == 2


def test_console_script_entry_point(tmp_path):
    import subprocess
    import sys

    path, _ = write_config(
        tmp_path, scheme="lhs", n=3, inputs=UNIT_SQUARE_INPUTS,
        output_dir=str(tmp_path / "out"),
    )
    run = subprocess.run(
        [sys.executable, "-m", "qdoe.cli", "sample", "--config", str(path)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "design_lhs_n3.csv").exists()
    missing = subprocess.run(
        [sys.executable, "-m", "qdoe.cli", "sample"], capture_output=True, text=True
    )
    assert missing.returncode == 2  # argparse usage error


_IMPORT_GRAPH_CHILD = """
import sys
import qdoe.cli
code = qdoe.cli.main(["sample", "--config", sys.argv[1]])
assert code == 0, code
assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
"""


def test_commands_do_not_import_scipy_stats(tmp_path):
    # scipy.stats costs more to import than the rest of qdoe together; lhsd on
    # vg_theta reaches both of its former uses (ranks and the Beta(2, 2) quantile)
    import subprocess
    import sys

    path, _ = write_config(
        tmp_path, scheme="lhsd", n=5, pool_size=500,
        model={"name": "vg_theta"}, output_dir=str(tmp_path / "out"),
    )
    run = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_CHILD, str(path)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "design_lhsd_n5.csv").exists()


# argv: "load_config" and config paths, or a command line that must exit 2;
# numpy and scipy must still be unimported after each step
_COLD_PATH_CHILD = """
import sys
import qdoe.cli

def check(step):
    heavy = [m for m in sys.modules if m == "numpy" or m.startswith(("numpy.", "scipy"))]
    assert not heavy, f"{step} imported {sorted(heavy)[:5]}"

check("import qdoe.cli")
if sys.argv[1] == "load_config":
    for path in sys.argv[2:]:
        qdoe.cli.load_config(path)
        check(f"load_config({path})")
else:
    try:
        code = qdoe.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    assert code == 2, code
    check(f"main({sys.argv[1:]})")
"""


def run_cold_path_child(args, **env):
    import os
    import subprocess
    import sys

    run = subprocess.run([sys.executable, "-c", _COLD_PATH_CHILD, *map(str, args)],
                         capture_output=True, text=True, env=dict(os.environ, **env))
    assert run.returncode == 0, run.stderr


def test_load_config_imports_neither_numpy_nor_scipy(tmp_path):
    # a command's config is read before numpy loads, so a config error costs no
    # numpy import; the pool_csv file does not exist, as load_config reads no
    # file but the config
    flood, _ = write_config(
        tmp_path, "flood.json", scheme="qlhs", n=[10, 100], repetitions=30, pool_size=2000,
        lloyd={"max_iter": 60, "rel_tol": 1e-7, "restarts": 2}, model={"name": "flood"},
    )
    pool_group = {"name": "p", "kind": "pool", "columns": ["c", "d"],
                  "pool_csv": str(tmp_path / "absent.csv")}
    inline, _ = write_config(
        tmp_path, "inline.json", scheme="qlhs", n=[10], repetitions=2,
        inputs={"groups": UNIT_SQUARE_INPUTS["groups"] + [pool_group]},
    )
    run_cold_path_child(["load_config", flood, inline])


@pytest.mark.parametrize("argv, env", [
    (["estimate", "--config", "bad.json"], {}),
    (["sample", "--config", "missing.json"], {"QDOE_LOG": "nonsense"}),
    (["estimate", "--threads", "0", "--config", "bad.json"], {}),
], ids=["config error", "unknown QDOE_LOG", "usage error"])
def test_early_errors_exit_before_numpy_loads(tmp_path, argv, env):
    write_config(tmp_path, "bad.json", scheme="qlhs", n=[10], repetitions=2, model="flood")
    run_cold_path_child([tmp_path / a if a.endswith(".json") else a for a in argv], **env)


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_CHILD = f"""
import os, sys
import qdoe.cli
BLAS_VARIABLES = {BLAS_VARIABLES!r}

os.register_at_fork(after_in_child=lambda: os.write(
    1, f"worker {{os.environ.get('OPENBLAS_NUM_THREADS')}}\\n".encode()))
assert qdoe.cli.main(sys.argv[1:]) == 0
print("parent", *(os.environ.get(name) for name in BLAS_VARIABLES), flush=True)
"""


@pytest.mark.parametrize("command, preset, parent, workers", [
    ("estimate", None, "1 1 1", ["1", "1"]),
    ("hsic", None, "2 2 2", []),
    ("estimate", "3", "3 1 1", ["3", "3"]),
], ids=["estimate", "hsic", "preset"])
def test_threads_set_the_blas_budget_before_numpy_loads(tmp_path, command, preset, parent,
                                                        workers):
    # threadpoolctl is not installed, so this checks the variables the process
    # and its forked workers inherit, not the size of OpenBLAS's live pool
    import os
    import subprocess
    import sys

    path, _ = write_config(tmp_path, scheme="mc", n=[20], repetitions=2, seed=1,
                           test={"permutations": 100}, output_dir=str(tmp_path / "out"),
                           model={"name": "flood" if command == "estimate" else
                                  "synthetic_screen"})
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run(
        [sys.executable, "-c", _BLAS_CHILD, command, "--config", str(path), "--threads", "2"],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == f"parent {parent}"
    assert sorted(line.split()[1] for line in lines if line.startswith("worker")) == workers


def test_default_threads_follow_the_cpu_affinity(monkeypatch):
    from qdoe.cli import _build_parser

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    assert _build_parser().parse_args(["estimate", "--config", "c.json"]).threads == 1


def test_package_names_resolve_on_first_access():
    import importlib
    import sys

    import qdoe

    for name in qdoe.__all__:
        value = getattr(qdoe, name)
        if name == "__version__":
            assert value == "0.1.0"
        elif isinstance(value, type(qdoe)):
            assert value is importlib.import_module(f"qdoe.{name}")
        else:
            assert value.__module__.startswith("qdoe.")
            assert getattr(sys.modules[value.__module__], name) is value
    assert qdoe.KernelSpec is qdoe.hsic.KernelSpec is qdoe.config.KernelSpec
    assert qdoe.estimators is importlib.import_module("qdoe.estimators")
    assert set(qdoe.__all__) <= set(dir(qdoe))
    with pytest.raises(AttributeError, match="'qdoe' has no attribute 'no_such_name'"):
        qdoe.no_such_name
    namespace = {}
    exec("from qdoe import *", namespace)
    assert all(namespace[name] is getattr(qdoe, name) for name in qdoe.__all__)


def test_numerical_error_returns_3(tmp_path):
    # a pool whose first column is constant makes the copula fit degenerate,
    # which is a numerical error (exit 3), not a config error
    pool_csv = tmp_path / "pool.csv"
    pool_csv.write_text("x,y\n" + "\n".join(f"1.0,{v / 9}" for v in range(30)) + "\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x", "y"],
                          "pool_csv": str(pool_csv)}]}
    path, _ = write_config(tmp_path, scheme="lhsd", n=5, inputs=inputs,
                           pool_size=30, output_dir=str(tmp_path / "out"))
    assert main(["sample", "--config", str(path)]) == 3
