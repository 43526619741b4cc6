import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdoe import load_quantizer
from qdoe.cli import main
from qdoe.config import parse_config
from qdoe.errors import ConfigError

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
    with pytest.raises(ConfigError, match=r"config.inputs.groups\[0\]"):
        parse_config(
            {"version": 1, "seed": 1,
             "inputs": {"groups": [{"name": "g", "kind": "copula", "columns": ["x"]}]}}
        )
    with pytest.raises(ConfigError, match=r"config.inputs.groups\[0\].marginals\[0\]: uniform"):
        parse_config(
            {"version": 1, "seed": 1,
             "inputs": {"groups": [{"name": "u", "kind": "independent", "columns": ["x"],
                                    "marginals": [{"type": "uniform", "a": 2, "b": 2}]}]}}
        )


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
], ids=["shared text", "shared integer", "standardize text", "output_dir integer",
        "vg_theta h text", "synthetic_screen rho text", "pool group pool_csv 0",
        "pool group pool_csv 987", "vg_theta pool_csv 0", "vg_theta pool_csv 987",
        "vg pool_csv missing file", "vg_theta unknown param", "flood unknown param",
        "model name list", "model string", "group name list", "distribution type list",
        "column name list", "column name integer", "correlation ragged",
        "correlation text", "correlation not symmetric", "correlation not positive definite",
        "uniform empty interval", "truncation without mass"])
def test_config_value_of_wrong_type_returns_2_and_writes_nothing(tmp_path, monkeypatch,
                                                                 overrides):
    monkeypatch.chdir(tmp_path)  # a relative output_dir would land here
    raw = {"scheme": "mc", "n": 4, "output_dir": "out", **overrides}
    if "model" not in raw:
        raw.setdefault("inputs", UNIT_SQUARE_INPUTS)
    path, _ = write_config(tmp_path, **raw)
    assert main(["sample", "--config", str(path)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


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


@pytest.mark.parametrize("section, edit", [
    ("assignments", lambda rest: ["0"] * len(rest)),  # every pool point in cell 0
    ("probabilities", lambda rest: ["0.9"] + rest[1:]),
    ("probabilities", lambda rest: ["abc"] + rest[1:]),
], ids=["empty cells", "edited probability", "non-numeric line"])
def test_tampered_quantizer_file_fails_and_writes_nothing(tmp_path, section, edit):
    pool_csv = tmp_path / "pool.csv"
    rows = np.random.default_rng(0).standard_normal(60)
    pool_csv.write_text("x\n" + "\n".join(repr(float(v)) for v in rows) + "\n")
    inputs = {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                          "pool_csv": str(pool_csv)}]}
    qcfg, _ = write_config(tmp_path, name="q.json", inputs=inputs, n_cells=5,
                           output_dir=str(tmp_path / "art"))
    assert main(["quantize", "--config", str(qcfg)]) == 0
    artifact = tmp_path / "art" / "quantizer_g_n5.csv"
    lines = artifact.read_text().splitlines()
    first = lines.index(section) + 1
    lines[first:] = edit(lines[first:])
    artifact.write_text("\n".join(lines) + "\n")
    scfg, _ = write_config(tmp_path, name="s.json", scheme="rq", n=5, inputs=inputs,
                           quantizer_files={"g": str(artifact)},
                           output_dir=str(tmp_path / "out"))
    assert main(["sample", "--config", str(scfg)]) == 2
    assert not (tmp_path / "out" / "design_rq_n5.csv").exists()


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
    from qdoe import CandidatePool
    from qdoe.models import vg_pool
    from qdoe.quantizer import save_pool

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
