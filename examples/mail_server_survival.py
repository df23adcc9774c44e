#!/usr/bin/env python3
"""A mail server riding out a decaying disk.

Runs a PostMark-style mail workload on ixt3 while latent sector errors
and silent corruptions accumulate underneath (the fail-partial model:
sticky block failures with spatial locality, plus misdirected-write
corruption).  A periodic scrub pass repairs damage from replicas and
parity before it can pile up past what one parity block per file can
absorb.

Run:  python examples/mail_server_survival.py
"""

import random

from repro.common.errors import FSError
from repro.common.rng import random_bytes
from repro.disk import (
    CorruptionMode,
    Fault,
    DeviceStack,
    FaultKind,
    FaultOp,
    make_disk,
)
from repro.fs.ext3 import Ext3Config
from repro.fs.ixt3 import Ixt3, ixt3_config, mkfs_ixt3

RNG = random.Random(2026)
ROUNDS = 8
MAILS_PER_ROUND = 12


def main() -> None:
    base = Ext3Config(blocks_per_group=1024, inodes_per_group=128,
                      num_groups=2, journal_blocks=128)
    cfg = ixt3_config(base, dynamic_replica_slots=256)
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs_ixt3(disk, base, config=cfg)

    stack = DeviceStack(disk, inject=True)
    injector = stack.injector
    fs = Ixt3(stack)
    fs.mount()
    injector.set_type_oracle(fs.block_type)
    fs.mkdir("/spool")

    mailbox = {}
    delivered = served = recovered = 0

    for round_no in range(ROUNDS):
        # The disk decays: a small scratch lands somewhere in the data area.
        victim = RNG.randrange(cfg.groups_start, cfg.total_blocks - 4)
        injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL,
                           block=victim, locality_run=RNG.randrange(2)))
        if round_no % 3 == 2:
            injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.CORRUPT,
                               block_type="data", corruption=CorruptionMode.NOISE))

        # Mail keeps arriving...
        for _ in range(MAILS_PER_ROUND):
            mid = f"msg{delivered:04d}"
            body = (f"From: sender{delivered}\n\n".encode()
                    + random_bytes(RNG, RNG.randrange(400, 3000)))
            fs.write_file(f"/spool/{mid}", body)
            mailbox[mid] = body
            delivered += 1

        # ...and being read back.
        for mid, body in RNG.sample(sorted(mailbox.items()), k=min(8, len(mailbox))):
            try:
                got = fs.read_file(f"/spool/{mid}")
            except FSError as exc:
                print(f"round {round_no}: LOST {mid}: {exc.errno.name}")
                continue
            served += 1
            assert got == body, f"round {round_no}: {mid} served corrupted!"

        # Nightly scrub: ixt3's own eager pass verifies checksums,
        # probes for latent errors, and repairs from replicas/parity.
        stats = fs.scrub()
        recovered += stats["repaired"]
        print(f"round {round_no}: {MAILS_PER_ROUND} delivered, "
              f"scrub repaired {stats['repaired']} "
              f"(latent={stats['latent']}, corrupt={stats['corrupt']}, "
              f"lost={stats['lost']})")

    print()
    print(f"survived {ROUNDS} rounds of disk decay: "
          f"{delivered} mails delivered, {served} reads served intact, "
          f"{recovered} redundancy recoveries, 0 messages lost or corrupted")


if __name__ == "__main__":
    main()
