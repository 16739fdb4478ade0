"""Control-flow graph construction tests (repro.lint.cfg)."""

from repro.asm import assemble
from repro.lint import ControlFlowGraph


def cfg_of(source):
    return ControlFlowGraph(assemble(source))


def test_straightline_successors():
    cfg = cfg_of(".text\nmain: mov 1, %g1\nadd %g1, 1, %g2\nhalt")
    assert cfg.n == 3
    assert cfg.entry == 0
    assert cfg.successors(0) == (1,)
    assert cfg.successors(1) == (2,)
    assert cfg.successors(2) == ()          # halt ends the path


def test_conditional_branch_goes_both_ways():
    cfg = cfg_of(".text\nmain: cmp %g1, 0\nbe done\nmov 1, %g2\n"
                 "done: halt")
    assert set(cfg.successors(1)) == {3, 2}


def test_ba_goes_only_to_target():
    cfg = cfg_of(".text\nmain: ba skip\nmov 1, %g1\nskip: halt")
    assert cfg.successors(0) == (2,)
    assert 1 not in cfg.reachable


def test_call_targets_callee_and_return_site():
    source = (".text\nmain: call sub\nhalt\nsub: ret")
    cfg = cfg_of(source)
    assert set(cfg.successors(0)) == {2, 1}
    assert cfg.call_returns == frozenset({1})
    assert cfg.successors(2) == ()          # jmpl: strict path ends


def test_jmpl_may_successors_cover_labels_and_returns():
    source = (".text\nmain: call sub\nhalt\nsub: ret")
    cfg = cfg_of(source)
    # ret may land on any labelled instruction or call-return site.
    may = set(cfg.may_successors(2))
    assert 1 in may                          # the call-return site
    assert 0 in may and 2 in may             # labelled: main, sub
    # Non-jmpl instructions keep their strict successors.
    assert cfg.may_successors(0) == cfg.successors(0)


def test_leaders_and_blocks_partition_text():
    source = (".text\nmain: cmp %g1, 0\nbe done\nmov 1, %g2\n"
              "add %g2, 1, %g2\ndone: halt")
    cfg = cfg_of(source)
    assert cfg.leaders == (0, 2, 4)
    assert [cfg.block_of(i) for i in range(5)] == [0, 0, 2, 2, 4]


def test_off_end_detection():
    cfg = cfg_of(".text\nmain: mov 1, %g1")
    assert cfg.off_end_sites() == [0]
    cfg = cfg_of(".text\nmain: mov 1, %g1\nhalt")
    assert cfg.off_end_sites() == []


def test_off_end_via_conditional_fallthrough():
    cfg = cfg_of(".text\nmain: cmp %g1, 0\nbe main")
    assert cfg.off_end_sites() == [1]


def test_reachability_excludes_code_after_ba():
    source = (".text\nmain: ba out\ndead1: mov 1, %g1\nmov 2, %g2\n"
              "out: halt")
    cfg = cfg_of(source)
    assert cfg.reachable == frozenset({0, 3})


def test_empty_text_section():
    cfg = ControlFlowGraph(assemble(".text\n.data\nw: .word 1"))
    assert cfg.n == 0
    assert cfg.leaders == ()
    assert cfg.off_end_sites() == []
