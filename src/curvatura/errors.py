"""Exception types shared across the package."""


class CurvaturaError(Exception):
    """Base class for all package-specific errors."""


class ChartSingularityError(CurvaturaError):
    """A chart-dependent quantity was requested at a singular chart point
    (e.g. r = 0 or the polar axis of a geodesic polar chart)."""


class DegenerateGradientError(CurvaturaError):
    """|grad u| fell below the degeneracy cutoff; level-set quantities are
    undefined there.  Operations refuse rather than regularize."""


class GeometryError(CurvaturaError):
    """A geometric assumption failed at runtime (root finding on a ray did
    not bracket, a level set does not enclose the ray origin, ...)."""


class CapabilityError(CurvaturaError):
    """The request is outside the supported problem sizes (e.g. explicit
    Kronecker contractions above the documented dimension bound)."""


class ConfigError(CurvaturaError):
    """Invalid run configuration.  The message names the offending key path."""


def node_error(cls, node: int, detail: str) -> Exception:
    """An error of type cls about one node of a node stack, named by its
    index.  The index and detail stay on the error as `node` and `detail`,
    so that a caller evaluating a stack that starts at node `lo` of a larger
    rule can re-raise it with the rule's index node + lo."""
    err = cls(f"node {node}: {detail}")
    err.node, err.detail = node, detail
    return err
