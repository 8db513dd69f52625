"""The benchmark's workloads: one biharm CLI command each.

Paths are relative to the root of the checkout, which is the working
directory of every benchmark process.
"""

from __future__ import annotations

from dataclasses import dataclass

# Solver seeds whose outputs are recorded in reference.json.  The
# benchmark seed picks the order in which a run walks through them, so
# every run is checked against values recorded from a known-good commit.
PROGRAM_SEEDS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple          # CLI subcommand and flags, without --config, --seed, --out
    config: str
    expected_exit: int
    certificate: str        # artifact holding the certificate constants

    @property
    def argv(self) -> tuple:
        return (*self.command, "--config", self.config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy-two-solutions",
            command=("solve-sub", "--force"),
            config="configs/toy_mp.json",
            expected_exit=0,
            certificate="certificate.json",
        ),
        Workload(
            name="bundled-critical",
            command=("solve-critical", "--force"),
            config="configs/bundled.json",
            expected_exit=0,
            certificate="certificate.json",
        ),
        Workload(
            name="plate2d-certify",
            command=("certify",),
            config="perfbench/plate2d.json",
            expected_exit=4,
            certificate="report.json",
        ),
    )
}
