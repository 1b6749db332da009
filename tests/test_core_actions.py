"""Per-opcode semantics tests, driven through tiny walker programs."""

import pytest

from repro.core import (
    EV_FILL,
    EV_META_LOAD,
    IMM,
    MSG,
    R,
    Transition,
    WalkerSpec,
    XCacheConfig,
    XCacheSystem,
    compile_walker,
    op,
)
from repro.core.actions import ActionError


def run_alu_program(actions, fields=None, result_reg=0):
    """Run a Default-state routine then expose R<result_reg> via data RAM."""
    tail = (
        op.allocD(R(14), IMM(1)),
        op.write(R(14), R(result_reg)),
        op.update("sector_start", R(14)),
        op.addi(R(15), R(14), 1),
        op.update("sector_end", R(15)),
        op.finish(),
    )
    spec = WalkerSpec("alu", (
        Transition("Default", EV_META_LOAD, (op.allocM(),) + tuple(actions)
                   + tail),
    ))
    config = XCacheConfig(ways=2, sets=4, data_sectors=32, num_exe=4,
                          xregs_per_walker=16)
    system = XCacheSystem(config, compile_walker(spec))
    system.load((1,), walk_fields=fields or {})
    responses = system.run()
    assert responses[0].found
    return int.from_bytes(responses[0].data[:8], "little"), system


@pytest.mark.parametrize("build,expected", [
    (lambda: [op.mov(R(0), IMM(5)), op.addi(R(0), R(0), 3)], 8),
    (lambda: [op.mov(R(1), IMM(6)), op.mov(R(2), IMM(7)),
              op.add(R(0), R(1), R(2))], 13),
    (lambda: [op.mov(R(1), IMM(0b1100)), op.and_(R(0), R(1), IMM(0b1010))],
     0b1000),
    (lambda: [op.mov(R(1), IMM(0b1100)), op.or_(R(0), R(1), IMM(0b0011))],
     0b1111),
    (lambda: [op.mov(R(1), IMM(0b1100)), op.xor(R(0), R(1), IMM(0b1010))],
     0b0110),
    (lambda: [op.mov(R(0), IMM(3)), op.shl(R(0), R(0), IMM(4))], 48),
    (lambda: [op.mov(R(0), IMM(48)), op.shr(R(0), R(0), IMM(4))], 3),
    (lambda: [op.mov(R(0), IMM(48)), op.srl(R(0), R(0), IMM(4))], 3),
    (lambda: [op.mov(R(0), IMM(9)), op.inc(R(0))], 10),
    (lambda: [op.mov(R(0), IMM(9)), op.dec(R(0))], 8),
    (lambda: [op.mov(R(1), IMM(0)), op.not_(R(0), R(1))], (1 << 64) - 1),
])
def test_agen_semantics(build, expected):
    value, _system = run_alu_program(build())
    assert value == expected


def test_sra_sign_extends():
    neg = (1 << 64) - 16  # -16 in two's complement
    value, _ = run_alu_program(
        [op.mov(R(1), IMM(neg)), op.sra(R(0), R(1), IMM(2))])
    assert value == (1 << 64) - 4  # -4


def test_msg_operand_resolution():
    value, _ = run_alu_program([op.mov(R(0), MSG("payload_in"))],
                               fields={"payload_in": 321})
    assert value == 321


def test_missing_msg_field_raises():
    with pytest.raises(KeyError):
        run_alu_program([op.mov(R(0), MSG("nope"))])


def test_beq_taken_and_not_taken():
    value, _ = run_alu_program([
        op.mov(R(0), IMM(1)),
        op.beq(R(0), IMM(1), "skip"),
        op.mov(R(0), IMM(99)),
        op.lbl("skip"),
    ])
    assert value == 1
    value, _ = run_alu_program([
        op.mov(R(0), IMM(2)),
        op.beq(R(0), IMM(1), "skip"),
        op.mov(R(0), IMM(99)),
        op.lbl("skip"),
    ])
    assert value == 99


@pytest.mark.parametrize("branch,a,expected_skip", [
    (lambda t: op.bnz(R(1), t), 1, True),
    (lambda t: op.bnz(R(1), t), 0, False),
    (lambda t: op.blt(R(1), IMM(5), t), 3, True),
    (lambda t: op.blt(R(1), IMM(5), t), 7, False),
    (lambda t: op.bge(R(1), IMM(5), t), 5, True),
    (lambda t: op.bge(R(1), IMM(5), t), 4, False),
    (lambda t: op.ble(R(1), IMM(5), t), 5, True),
    (lambda t: op.ble(R(1), IMM(5), t), 6, False),
])
def test_conditional_branches(branch, a, expected_skip):
    value, _ = run_alu_program([
        op.mov(R(1), IMM(a)),
        op.mov(R(0), IMM(1)),
        branch("skip"),
        op.mov(R(0), IMM(99)),
        op.lbl("skip"),
    ])
    assert value == (1 if expected_skip else 99)


def test_jmp_unconditional():
    value, _ = run_alu_program([
        op.mov(R(0), IMM(7)),
        op.jmp("skip"),
        op.mov(R(0), IMM(99)),
        op.lbl("skip"),
    ])
    assert value == 7


def test_branch_counted_in_stats():
    _value, system = run_alu_program([
        op.mov(R(0), IMM(1)),
        op.beq(R(0), IMM(1), "skip"),
        op.mov(R(0), IMM(9)),
        op.lbl("skip"),
    ])
    assert system.controller.stats.get("branches") == 1
    assert system.controller.stats.get("branches_taken") == 1


def test_bhit_bmiss_probe_metatags():
    # tag (1,) is the walker's own tag (allocated); probing it hits.
    value, _ = run_alu_program([
        op.mov(R(0), IMM(0)),
        op.bhit(IMM(1), "hit"),
        op.mov(R(0), IMM(99)),
        op.lbl("hit"),
    ])
    assert value == 0
    value, _ = run_alu_program([
        op.mov(R(0), IMM(0)),
        op.bmiss(IMM(77), "miss"),
        op.mov(R(0), IMM(99)),
        op.lbl("miss"),
    ])
    assert value == 0


def test_enq_self_carries_fields():
    spec = WalkerSpec("selfmsg", (
        Transition("Default", EV_META_LOAD, (
            op.allocM(),
            op.mov(R(1), IMM(55)),
            op.enq_self("Poked", delay=3, val=R(1)),
            op.state("Waiting"),
        )),
        Transition("Waiting", "Poked", (
            op.mov(R(0), MSG("val")),
            op.allocD(R(14), IMM(1)),
            op.write(R(14), R(0)),
            op.update("sector_start", R(14)),
            op.addi(R(15), R(14), 1),
            op.update("sector_end", R(15)),
            op.finish(),
        )),
    ))
    system = XCacheSystem(XCacheConfig(ways=2, sets=4, data_sectors=16, xregs_per_walker=16),
                          compile_walker(spec))
    system.load((1,))
    responses = system.run()
    assert int.from_bytes(responses[0].data[:8], "little") == 55


def test_enq_self_hash_fields():
    from repro.data.hashindex import fnv1a64
    spec = WalkerSpec("hash", (
        Transition("Default", EV_META_LOAD, (
            op.allocM(),
            op.mov(R(1), IMM(1234)),
            op.enq_self("Hashed", delay=10, hash_fields={"h": R(1)}),
            op.state("Waiting"),
        )),
        Transition("Waiting", "Hashed", (
            op.mov(R(0), MSG("h")),
            op.allocD(R(14), IMM(1)),
            op.write(R(14), R(0)),
            op.update("sector_start", R(14)),
            op.addi(R(15), R(14), 1),
            op.update("sector_end", R(15)),
            op.finish(),
        )),
    ))
    system = XCacheSystem(XCacheConfig(ways=2, sets=4, data_sectors=16, xregs_per_walker=16),
                          compile_walker(spec))
    system.load((1,))
    responses = system.run()
    assert int.from_bytes(responses[0].data[:8], "little") == fnv1a64(1234)
    assert system.controller.stats.get("hash_ops") == 1
    assert system.controller.stats.get("hash_cycles") == 10


def test_hash_fields_count_through_bound_counters(monkeypatch):
    """test_enq_self_hash_fields, hash counts included, with by-name
    counting made to fail: the executor bumps bound counters."""
    from repro.sim.stats import StatGroup

    def by_name(self, name, amount=1):
        raise AssertionError(f"StatGroup.inc({name!r})")

    monkeypatch.setattr(StatGroup, "inc", by_name)
    test_enq_self_hash_fields()


def test_peek_extracts_fill_bytes(mini_system):
    addr = mini_system.image.alloc_u64_array([0xCAFEBABE])
    mini_system.load((1,), walk_fields={"addr": addr})
    responses = mini_system.run()
    assert int.from_bytes(responses[0].data[:8], "little") == 0xCAFEBABE


def test_peek_beyond_payload_raises():
    spec = WalkerSpec("bad-peek", (
        Transition("Default", EV_META_LOAD, (
            op.allocM(),
            op.enq_dram(addr=IMM(64)),
            op.state("Wait"),
        )),
        Transition("Wait", EV_FILL, (
            op.peek(R(0), IMM(100)),  # offset beyond the 64B block
            op.finish(),
        )),
    ))
    system = XCacheSystem(XCacheConfig(ways=2, sets=4, data_sectors=16, xregs_per_walker=16),
                          compile_walker(spec))
    system.load((1,))
    with pytest.raises(ActionError):
        system.run()


def test_dealloc_m_means_not_found():
    spec = WalkerSpec("notfound", (
        Transition("Default", EV_META_LOAD, (
            op.allocM(),
            op.deallocM(),
        )),
    ))
    system = XCacheSystem(XCacheConfig(ways=2, sets=4, data_sectors=16, xregs_per_walker=16),
                          compile_walker(spec))
    system.load((9,))
    responses = system.run()
    assert not responses[0].found
    # entry must be gone: a repeat miss walks again
    system.load((9,))
    system.run()
    assert system.controller.stats.get("misses") == 2


def test_write_multisector_from_msg_cost_scales():
    spec = WalkerSpec("bigcopy", (
        Transition("Default", EV_META_LOAD, (
            op.allocM(),
            op.enq_dram(addr=IMM(64)),
            op.state("Wait"),
        )),
        Transition("Wait", EV_FILL, (
            op.allocD(R(1), IMM(8)),
            op.write(R(1), IMM(0), nbytes=64, from_msg=True),
            op.update("sector_start", R(1)),
            op.addi(R(2), R(1), 8),
            op.update("sector_end", R(2)),
            op.finish(),
        )),
    ))
    config = XCacheConfig(ways=2, sets=4, data_sectors=32, wlen=4,
                          xregs_per_walker=16)
    system = XCacheSystem(config, compile_walker(spec))
    system.image.write_block(64, bytes(range(64)))
    system.load((1,))
    responses = system.run()
    assert responses[0].data == bytes(range(64))


def test_deallocd_frees_sectors():
    spec = WalkerSpec("freeing", (
        Transition("Default", EV_META_LOAD, (
            op.allocM(),
            op.allocD(R(1), IMM(4)),
            op.deallocD(R(1), IMM(4)),
            op.allocD(R(2), IMM(1)),
            op.mov(R(0), IMM(1)),
            op.write(R(2), R(0)),
            op.update("sector_start", R(2)),
            op.addi(R(3), R(2), 1),
            op.update("sector_end", R(3)),
            op.finish(),
        )),
    ))
    system = XCacheSystem(XCacheConfig(ways=2, sets=4, data_sectors=8, xregs_per_walker=16),
                          compile_walker(spec))
    system.load((1,))
    system.run()
    # 4 sectors were freed; only the 1-sector payload remains
    assert system.controller.dataram.used_sectors == 1


def test_read_data_action():
    spec = WalkerSpec("readback", (
        Transition("Default", EV_META_LOAD, (
            op.allocM(),
            op.allocD(R(1), IMM(1)),
            op.mov(R(2), IMM(444)),
            op.write_data(R(1), R(2)),
            op.read_data(R(0), R(1)),
            op.allocD(R(14), IMM(1)),
            op.write(R(14), R(0)),
            op.update("sector_start", R(14)),
            op.addi(R(15), R(14), 1),
            op.update("sector_end", R(15)),
            op.finish(),
        )),
    ))
    system = XCacheSystem(XCacheConfig(ways=2, sets=4, data_sectors=16, xregs_per_walker=16),
                          compile_walker(spec))
    system.load((1,))
    responses = system.run()
    assert int.from_bytes(responses[0].data[:8], "little") == 444


def test_action_category_stats_accumulate(mini_system):
    addr = mini_system.image.alloc_u64_array([1])
    mini_system.load((1,), walk_fields={"addr": addr})
    mini_system.run()
    stats = mini_system.controller.stats
    assert stats.get("act_agen") > 0
    assert stats.get("act_meta") > 0
    assert stats.get("act_queue") > 0
    assert stats.get("act_data") > 0
    assert stats.get("ucode_reads") == stats.get("actions_total")


def test_exec_results_are_pooled(mini_walker, mini_config, monkeypatch):
    import repro.core.actions as actions_mod

    allocations = [0]
    orig_init = actions_mod.ExecResult.__init__

    def counting_init(self, *args, **kwargs):
        allocations[0] += 1
        orig_init(self, *args, **kwargs)

    monkeypatch.setattr(actions_mod.ExecResult, "__init__", counting_init)
    system = XCacheSystem(mini_config, mini_walker)
    addr = system.image.alloc_u64_array(list(range(16)))
    for i in range(16):
        system.load((i,), walk_fields={"addr": addr + 8 * i})
    system.run()
    executed = system.controller.stats.counter("actions_total").value
    assert executed > 100
    # steady state returns module-level pooled instances; only a
    # pathological >32-slot copy may allocate
    assert allocations[0] == 0, (allocations[0], executed)
