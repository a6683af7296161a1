"""Platform substrate: the vectorised keep-alive pod-lifecycle
reconstruction used by the trace generator."""

from repro.cluster.lifecycle import PodLifecycle, reconstruct_function_pods

__all__ = [
    "PodLifecycle",
    "reconstruct_function_pods",
]
