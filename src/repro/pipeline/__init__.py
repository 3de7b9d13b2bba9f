"""End-to-end session pipeline: configs, sessions, results, batches."""

from .config import NetworkConfig, PolicyName, SessionConfig, VideoConfig
from .flow import MediaFlow
from .multiflow import MultiFlowSession, jain_fairness
from .manifest import RunManifest, find_manifest, manifest_dir
from .parallel import ResultCache, config_hash, configure, run_many
from .results import (
    FrameOutcome,
    SessionPerf,
    SessionResult,
    TimeseriesSample,
)
from .runner import run_session
from .session import RtcSession
from .shards import (
    MergeSummary,
    ShardPlan,
    ShardStatus,
    build_plan,
    merge_shards,
    render_merged,
    run_shard,
    shard_dir,
    shard_status,
)
from .supervisor import (
    FailedSession,
    Supervisor,
    SupervisorPlan,
    SupervisorPolicy,
    SupervisorStats,
    failure_label,
    split_failures,
)

__all__ = [
    "FailedSession",
    "FrameOutcome",
    "MediaFlow",
    "MergeSummary",
    "MultiFlowSession",
    "NetworkConfig",
    "PolicyName",
    "ResultCache",
    "RtcSession",
    "RunManifest",
    "SessionConfig",
    "SessionPerf",
    "SessionResult",
    "ShardPlan",
    "ShardStatus",
    "Supervisor",
    "SupervisorPlan",
    "SupervisorPolicy",
    "SupervisorStats",
    "TimeseriesSample",
    "VideoConfig",
    "build_plan",
    "config_hash",
    "configure",
    "failure_label",
    "find_manifest",
    "jain_fairness",
    "manifest_dir",
    "merge_shards",
    "render_merged",
    "run_many",
    "run_session",
    "run_shard",
    "shard_dir",
    "shard_status",
    "split_failures",
]
