"""prestigesim: deterministic simulator for a prestige-backed reward system.

The package models an economy where completed useful work is acknowledged
with signed receipts, acknowledged work moves a decaying reputation score
(prestige) between accounts, and block minting rights are drawn in
proportion to prestige.

Modules
-------
core        prestige regeneration/decay dynamics and account state
mining      distribution DAGs, simple and progressive fee retention
acks        composite-signature acknowledgments and wire formats
chain       block state machine: election, rewards, replay protection
scenarios   reproducible experiments with CSV/summary outputs
cli         command-line front end (run / check / step / list)
"""

from types import ModuleType as _ModuleType

from .core import Account, SystemParams, convergence_gap, inject_prestige, static_value, step_account
from .errors import (
    AmountOverflow,
    DuplicateHop,
    DuplicateNode,
    DuplicateTask,
    InsufficientFunds,
    InvalidPrev,
    InvalidSignature,
    NoAccounts,
    NotInDag,
    PrestigeError,
    SnapshotError,
    UnknownAccount,
    UnknownNode,
    UnknownParent,
)
from .mining import (
    MiningDag,
    MiningMode,
    TransferRecord,
    apply_transfer,
    propagate_upstream,
    retain_progressive,
    settle_upstream,
)
from .acks import (
    AMOUNT_MAX,
    KeyPair,
    PATH_ACK_BASE_BYTES,
    PATH_HOP_BYTES,
    PathAck,
    PathHop,
    SIMPLE_ACK_BYTES,
    SchemeParams,
    SimpleAck,
    compose,
    encode_ack_message,
    extend_path_ack,
    keygen,
    make_root_ack,
    make_simple_ack,
    setup,
    sign,
    verify,
    verify_path_ack,
    verify_simple_ack,
)
from .chain import (
    Block,
    ChainState,
    RewardSchedule,
    advance_block,
    elect_minter,
    load_snapshot,
    register_motivator_reward,
    save_snapshot,
    submit_ack,
)
from .scenarios import (
    SCENARIOS,
    ScenarioResult,
    run_dag_study,
    run_decay_study,
    run_file_distribution,
    run_gain_vs_decay,
    run_global,
    run_scenario,
    run_theorem_checks,
    run_tradeoff,
    scenario_names,
)

__version__ = "0.1.0"

# every public name imported above, once; the submodules themselves are not exported
__all__ = [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)]
