"""Self-tests of the benchmark: span arithmetic, patching, output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None):
    span = layertrace.Span(name, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("a.root", 0.0, 10.0),
        _span("b.child", 1.0, 4.0, parent=0),
        _span("c.grandchild", 2.0, 3.5, parent=1),
        _span("b.child", 5.0, 6.0, parent=0),
    ]
    assert layertrace.self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a.root", 0.0, 10.0), _span("b.x", 1.0, 5.0, 0), _span("b.y", 3.0, 7.0, 0)]
    assert layertrace.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_self_times_add_up_to_the_root_span():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("net.forward", 1.0, 4.0, 0),
        _span("imagerep.resize", 5.0, 9.0, 0),
    ]
    metrics, _ = layertrace.layer_metrics(spans, {"net.forward"}, iterations=2, eval_images=0)
    layer_total = sum(metrics[f"{layer}.self_s"][0] for layer in layertrace.LAYERS)
    assert layer_total == pytest.approx(5.0)  # 10 s over two iterations
    assert metrics["net.forward.self_s"][0] == pytest.approx(1.5)


def test_layer_share_leaves_out_the_root_span_self_time():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("net.forward", 1.0, 4.0, 0),
        _span("net.backward", 2.0, 3.0, 1),
        _span("cli.main", 10.0, 12.0),
    ]
    assert layertrace.nested_self_s(spans) == pytest.approx(3.0)


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .alpha import f\n")
    (pkg / "alpha.py").write_text(
        "def f(x):\n    return x + 1\n\n\ndef g():\n    return f(1)\n"
    )
    (pkg / "beta.py").write_text(
        "from .alpha import f\n\nTABLE = {'f': f}\n\n\ndef h():\n    return f(2) + TABLE['f'](3)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_a_name_imported_into_two_modules_is_counted_once_per_call(fake_package):
    import fakepkg.alpha as alpha
    import fakepkg.beta as beta

    original = alpha.f
    tracer = layertrace.Tracer(package=fake_package, layers=("alpha", "beta"))
    with tracer:
        assert beta.f is alpha.f is beta.TABLE["f"]
        assert beta.h() == 7
        assert alpha.g() == 2
    names = [s.name for s in tracer.spans]
    assert names.count("alpha.f") == 3
    assert names.count("beta.h") == 1
    h = names.index("beta.h")
    assert [s.parent for s in tracer.spans if s.name == "alpha.f"][:2] == [h, h]
    assert alpha.f is original and beta.f is original and beta.TABLE["f"] is original


def test_absent_names_are_reported_not_fatal(fake_package):
    tracer = layertrace.Tracer(package=fake_package, layers=("alpha",))
    with tracer:
        pass
    _, absent = layertrace.layer_metrics(tracer.spans, tracer.wrapped, 1, 0)
    assert "net.forward" in absent and "steg.lsb_attack_fill" in absent


def test_a_counter_that_cannot_read_its_arguments_reports_the_count_absent(fake_package, tmp_path):
    # forward() has lost the ``images`` argument the net.forward counter reads.
    (tmp_path / fake_package / "net.py").write_text("def forward(x):\n    return x * 2\n")
    import fakepkg.net as net

    tracer = layertrace.Tracer(package=fake_package, layers=("net",))
    with tracer:
        assert net.forward(4) == 8
    assert tracer.uncounted == {"net.forward"}
    metrics, absent = layertrace.layer_metrics(
        tracer.spans, tracer.wrapped, 1, 10, tracer.uncounted
    )
    assert metrics["net.forward.calls"][0] == 1
    assert "net.forward.images" in absent and "detect.forwards_per_image" in absent
    assert "net.forward.calls" not in absent and "net.forward" not in absent


def _report(root: Path, rows: int, value: float) -> None:
    out = root / "out"
    out.mkdir(exist_ok=True)
    lines = ["run,model_lsb,eval_type,metric,value"]
    lines += [f"0,8,centroid,m{i},{value if i == 0 else 0.5!r}" for i in range(rows)]
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    (out / "report.json").write_text(json.dumps({"rows": [{}] * rows}))


def test_corrupted_report_is_a_failed_operation(tmp_path):
    wl = workloads.WORKLOADS["sweep-desk"]
    rows = (wl.runs + 3) * len(wl.modes) * (3 + wl.severities)
    _report(tmp_path, rows, 0.75)
    good = workloads.Check()
    wl.check(tmp_path, 1, ["out/report.csv", "out/report.json"], good)
    assert good.failures == [] and good.attempted > 0
    _report(tmp_path, rows, 1.5)
    bad = workloads.Check()
    wl.check(tmp_path, 1, ["out/report.csv", "out/report.json"], bad)
    assert bad.failures == ["every report value lies in [0, 1]"]


def test_bad_verdict_line_is_a_failed_operation(tmp_path):
    wl = workloads.WORKLOADS["scan-large"]
    zoo = tmp_path / "models/zoo0"
    zoo.mkdir(parents=True)
    names = [f"models/zoo0/model{i:03d}.f32" for i in range(wl.n_files)]
    for name in names:
        (tmp_path / name).write_bytes(b"")
    lines = [f"{name},0,1.5,2.5" for name in names]
    good = workloads.Check()
    wl.check(tmp_path, 1, lines, good)
    assert good.failures == []
    lines[3] = f"{names[3]},2,1.5,2.5"
    bad = workloads.Check()
    wl.check(tmp_path, 1, lines, bad)
    assert len(bad.failures) == 1 and "label(0|1)" in bad.failures[0]


def test_corrupted_attacked_file_fails_the_extraction_check(tmp_path, monkeypatch):
    from weightsteg import cli

    wl = workloads.WORKLOADS["attack-large"]
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert cli.main(["synth-mc", "--out", "models", "--zoos", "2", "--models", "1",
                         "--params", "4096", "--seed", "3"]) == 0
        start = len(printed.getvalue().splitlines())
        for argv in wl.commands(3):
            assert cli.main(argv) == 0
    lines = printed.getvalue().splitlines()[start:]
    good = workloads.Check()
    wl.check(tmp_path, 3, lines, good)
    assert good.failures == []

    target = tmp_path / "attack-x8/attacked/zoo0/model000.safetensors"
    data = bytearray(target.read_bytes())
    data[-4 * 4096] ^= 0x01  # low bit of the first weight's first payload byte
    target.write_bytes(bytes(data))
    bad = workloads.Check()
    wl.check(tmp_path, 3, lines, bad)
    assert bad.failures == ["X=8: extract_lsb recovers the fill-payload prefix"]


def test_benchmark_json_lists_what_the_benchmark_prints():
    import run

    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layertrace.metric_names()
