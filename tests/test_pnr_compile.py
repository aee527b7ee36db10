"""Unit tests for the pnr compile pipeline, report and CLI."""

import json
import re
from pathlib import Path

import pytest

from repro.diagnostics import (
    CODES,
    FASTPATH,
    PNR,
    PNR_UNKNOWN_OPCODE,
    REASON_CODES,
    CompileReport,
)
from repro.kernels.dsl import (
    GOLDEN_DESPREADER,
    descrambler_graph,
    despreader_graph,
    golden_kernels,
)
from repro.pnr import (
    KernelGraph,
    PnrError,
    compile_graph,
    infer_capacities,
    levelize,
    report_graph,
)
from repro.pnr.__main__ import main
from repro.xpp.array import XppArray
from repro.xpp.manager import ConfigurationManager
from repro.xpp.port import DEFAULT_CAPACITY


def _broken_graph():
    g = KernelGraph("broken")
    g.connect(g.stream_in("x"), g.op("FROBNICATE", name="bad"))
    g.connect("bad.0", g.stream_out("y"))
    return g


class TestPipeline:
    def test_report_fields_on_success(self):
        kernel = compile_graph(despreader_graph(**GOLDEN_DESPREADER))
        r = kernel.report
        assert r.ok and not r.diagnostics and not r.codes
        assert r.name == "despreader"
        assert r.n_nodes == 13 and r.n_edges == 14
        assert r.kinds == {"in": 2, "op": 9, "out": 1, "mem": 1}
        assert r.details["levels"] == 6
        assert r.details["routing"]["total_segments"] > 0
        assert 0 < r.details["routing"]["max_col_utilization"] <= 1.0
        assert set(r.timings_s) == {"lint", "place", "route", "emit"}
        assert all(t >= 0 for t in r.timings_s.values())
        # the despreader's register-balancing annotations pass through
        deep = {k: v for k, v in r.details["capacities"].items() if v != 2}
        assert set(deep.values()) == {8}

    def test_report_to_dict_is_json_clean(self):
        payload = report_graph(descrambler_graph()).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["ok"] is True
        assert payload["details"]["routing"]["total_segments"] > 0

    def test_compile_is_deterministic(self):
        a = compile_graph(descrambler_graph())
        b = compile_graph(descrambler_graph())
        assert a.placement.to_dict() == b.placement.to_dict()
        assert a.report.details["capacities"] == \
            b.report.details["capacities"]
        from repro.xpp.nml import dump_nml
        assert dump_nml(a.config) == dump_nml(b.config)

    def test_illegal_graph_raises_with_report_attached(self):
        with pytest.raises(PnrError) as exc:
            compile_graph(_broken_graph())
        assert PNR_UNKNOWN_OPCODE in exc.value.codes
        report = exc.value.report
        assert report is not None and not report.ok
        assert report.codes == exc.value.codes
        assert "rejected" in report.render()

    def test_report_graph_never_raises(self):
        report = report_graph(_broken_graph())
        assert not report.ok
        assert PNR_UNKNOWN_OPCODE in report.codes

    def test_render_mentions_deep_fifos(self):
        text = report_graph(despreader_graph(**GOLDEN_DESPREADER)).render()
        assert "compiles" in text
        assert "deep_fifos:" in text and "= 8" in text

    def test_infer_capacities_defaults_and_annotations(self):
        g = KernelGraph("caps")
        a = g.op("PASS", name="a")
        b = g.op("PASS", name="b")
        e1 = g.connect(a, b)
        e2 = g.connect(a, b["a"], capacity=5)
        caps = infer_capacities(g)
        assert caps[e1.label] == DEFAULT_CAPACITY
        assert caps[e2.label] == 5

    def test_levelize_collapses_feedback_loop(self):
        g = KernelGraph("loop")
        g.connect(g.stream_in("x"), g.op("ADD", name="add")["a"])
        g.connect("add.0", g.op("REG", name="reg", init=[0])["a"])
        g.connect("reg.0", "add.b")
        g.connect("add.0", g.stream_out("y"))
        levels, cyclic = levelize(g)
        assert levels["add"] == levels["reg"]
        assert cyclic == [["add", "reg"]]
        # the loop carries an initial token, so the graph compiles
        assert compile_graph(g).report.ok


class TestOneReportShape:
    def test_both_compilers_give_the_same_payload_keys(self):
        """A compiling and a rejected graph of each compiler serialise
        to payloads with identical top-level keys."""
        from repro.fastpath import explain
        from repro.kernels import build_descrambler_config
        mgr = ConfigurationManager()
        mgr.load(build_descrambler_config())
        reports = [report_graph(descrambler_graph()),
                   report_graph(_broken_graph()),
                   explain(mgr),
                   explain(ConfigurationManager())]
        assert all(isinstance(r, CompileReport) for r in reports)
        assert [(r.compiler, r.ok) for r in reports] == [
            (PNR, True), (PNR, False), (FASTPATH, True), (FASTPATH, False)]
        keys = [sorted(r.to_dict()) for r in reports]
        assert keys == [keys[0]] * 4


class TestPlacementHints:
    def test_claim_at_honours_and_rejects(self):
        array = XppArray()
        slot = array.claim_at("alu", 2, 3, "cfg-a")
        assert slot is not None and (slot.row, slot.col) == (2, 3)
        assert array.claim_at("alu", 2, 3, "cfg-b") is None   # occupied
        assert array.claim_at("alu", 99, 0, "cfg-b") is None  # no such PAE
        array.release(slot, "cfg-a")
        assert array.claim_at("alu", 2, 3, "cfg-b") is not None

    def test_manager_load_follows_hints(self):
        kernel = compile_graph(descrambler_graph())
        mgr = ConfigurationManager()
        mgr.load(kernel.config)
        for obj in kernel.config.objects:
            assert obj.position == kernel.placement.position(obj.name)


class TestCli:
    def test_compile_all_kernels_exits_zero(self, capsys):
        assert main(["compile"]) == 0
        out = capsys.readouterr().out
        for name in golden_kernels():
            assert f"pnr: {name} compiles" in out

    def test_compile_json_reports(self, capsys):
        assert main(["compile", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in reports} == set(golden_kernels())
        assert all(r["ok"] for r in reports)

    def test_compile_nml_prints_netlist(self, capsys):
        assert main(["compile", "descrambler", "--nml"]) == 0
        assert "descramble_mul" in capsys.readouterr().out

    def test_unknown_kernel_name_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["compile", "no-such-kernel"])

    def test_graph_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(
            {"graph": descrambler_graph().to_dict()}))
        assert main(["compile", "--graph", str(path)]) == 0
        assert "descrambler compiles" in capsys.readouterr().out

    def test_illegal_graph_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_broken_graph().to_dict()))
        assert main(["compile", "--graph", str(path)]) == 1
        assert "[unknown-opcode]" in capsys.readouterr().out

    def test_malformed_graph_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"nodes": "nope"}))
        assert main(["compile", "--graph", str(path)]) == 1
        assert "malformed-graph" in capsys.readouterr().err

    def test_write_then_check_golden(self, tmp_path, capsys):
        assert main(["compile", "--write-golden", str(tmp_path)]) == 0
        for name in golden_kernels():
            assert (tmp_path / f"pnr_{name}.json").exists()
        assert main(["compile", "--check-golden", str(tmp_path)]) == 0

    def test_check_golden_mismatch_says_how_to_regenerate(
            self, tmp_path, capsys):
        assert main(["compile", "--write-golden", str(tmp_path)]) == 0
        path = tmp_path / "pnr_descrambler.json"
        stale = json.loads(path.read_text())
        stale["slots"]["code_mux"]["row"] += 1
        path.write_text(json.dumps(stale))
        assert main(["compile", "--check-golden", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "differs from the golden artifact" in err
        assert f"--write-golden {tmp_path}" in err

    def test_codes_subcommand_prints_whole_table(self, capsys):
        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == len(CODES)
        for line, (code, (compiler, desc)) in zip(lines, CODES.items()):
            assert line.split()[:2] == [code, compiler]
            assert line.endswith(desc)
        # both compilers' vocabularies, not only place-and-route's
        fastpath = {line.split()[0] for line in lines
                    if line.split()[1] == "fastpath"}
        assert fastpath == set(REASON_CODES)

    def test_docs_code_table_lists_exactly_the_registry(self):
        doc = Path(__file__).resolve().parents[1] / "docs" / "pnr.md"
        section = doc.read_text().split("## Diagnostics")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `([^`]+)` \| (\w+) \| (.+?) \|$",
                          section, flags=re.MULTILINE)
        assert {code: (compiler, desc) for code, compiler, desc in rows} \
            == CODES
        assert len(rows) == len(CODES)
