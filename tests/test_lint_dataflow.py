"""Static analyzer findings on synthetic bad programs (repro.lint)."""

import pytest

from repro.lint import SEV_ERROR, lint_source, lint_workload
from repro.workloads import WORKLOADS


def checks_of(report):
    return [f.check for f in report.findings]


def finding(report, check):
    matches = [f for f in report.findings if f.check == check]
    assert matches, "no %r finding in %r" % (check, report.findings)
    return matches[0]


def test_uninit_read_detected_with_location():
    report = lint_source(".text\nmain: add %g1, 1, %g2\nhalt",
                         target="bad.s")
    f = finding(report, "uninit-read")
    assert "%g1" in f.message
    assert f.file == "bad.s" and f.line == 2
    assert f.location == "bad.s:2"
    assert f.severity == SEV_ERROR
    assert not report.ok


def test_initialized_read_is_clean():
    report = lint_source(".text\nmain: mov 1, %g1\nadd %g1, 1, %g1\n"
                         "st %g1, [%sp]\nhalt")
    assert report.ok and not report.findings
    assert "clean" in report.render()


def test_store_data_register_checked():
    report = lint_source(".text\nmain: st %g3, [%sp]\nhalt")
    assert "uninit-read" in checks_of(report)


def test_one_armed_init_still_flagged():
    """Defined on one path only: definite assignment uses intersection."""
    source = (".text\nmain: cmp %g0, 0\nbe skip\nmov 1, %g1\n"
              "skip: add %g1, 1, %g2\nst %g2, [%sp]\nhalt")
    report = lint_source(source)
    f = finding(report, "uninit-read")
    assert "%g1" in f.message


def test_dead_store_detected():
    source = (".text\nmain: mov 7, %g1\nmov 8, %g1\n"
              "st %g1, [%sp]\nhalt")
    report = lint_source(source, target="dead.s")
    f = finding(report, "dead-store")
    assert f.line == 2                       # the first mov is dead
    assert "never read" in f.message


def test_dead_cc_write_detected():
    report = lint_source(".text\nmain: cmp %g0, 1\nhalt")
    f = finding(report, "dead-store")
    assert "condition codes" in f.message


def test_store_keeps_value_live():
    report = lint_source(".text\nmain: mov 7, %g1\nst %g1, [%sp]\nhalt")
    assert "dead-store" not in checks_of(report)


def test_unreachable_block_detected():
    source = (".text\nmain: ba out\ndead: mov 1, %g1\nmov 2, %g2\n"
              "out: halt")
    report = lint_source(source, target="unreach.s")
    f = finding(report, "unreachable")
    assert "2 instructions" in f.message
    assert f.line == 3 and f.index == 1


def test_branch_without_cc_setter_detected():
    report = lint_source(".text\nmain: be main\nhalt")
    f = finding(report, "cc-missing")
    assert "condition-code" in f.message
    assert f.line == 2


def test_cc_set_on_one_path_only_flagged():
    source = (".text\nmain: ba test\ncmp %g0, 1\n"
              "test: be main\nhalt")
    report = lint_source(source)
    assert "cc-missing" in checks_of(report)


def test_fallthrough_off_end_detected():
    report = lint_source(".text\nmain: mov 1, %g1\nst %g1, [%sp]",
                         target="off.s")
    f = finding(report, "fallthrough-end")
    assert "fall through past the end" in f.message
    assert f.line == 3


def test_empty_text_reported():
    report = lint_source(".text\n.data\nw: .word 1")
    f = finding(report, "fallthrough-end")
    assert "empty .text" in f.message


def test_assembly_error_becomes_located_finding():
    report = lint_source(".text\nmain: add %q9, 1, %g1\nhalt",
                         target="broken.s")
    f = finding(report, "assemble")
    assert f.line == 2
    assert "unknown register" in f.message
    assert not report.ok


def test_call_fallthrough_assumes_callee_effects():
    """The callee may define anything, so reads after the return site
    are not flagged; call/jmpl use everything, so callee-visible results
    are not dead."""
    source = (".text\nmain: call sub\nadd %g1, 1, %g2\n"
              "st %g2, [%sp]\nhalt\n"
              "sub: mov 5, %g1\nret")
    report = lint_source(source)
    assert report.ok, report.render()


def test_findings_render_compiler_style():
    report = lint_source(".text\nmain: add %g1, 1, %g2\nhalt",
                         target="x.s")
    text = report.render()
    assert "x.s:2: error: [uninit-read]" in text


def test_report_sorted_by_location():
    source = (".text\nmain: ba out\ndead: mov 1, %g1\n"
              "out: add %g5, 1, %g6\nst %g6, [%sp]\nhalt")
    report = lint_source(source)
    lines = [f.line for f in report.findings]
    assert lines == sorted(lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_registered_workloads_lint_clean(name):
    report = lint_workload(name, scale=0.05)
    assert report.ok, report.render()
    assert report.instructions > 0 and report.blocks > 1
    assert report.analyses["collapse-bound"] is not None
    assert report.analyses["collapse-bound"].static_bound > 0
