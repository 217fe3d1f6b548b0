"""numpy, imported on first use.

Modules of the package bind this module as `np` (`from . import _np as np`).
The first lookup of an attribute, `np.cos` say, imports numpy and caches
that attribute here, so later lookups are plain module reads.  `plan`,
`parallel-sweep` and `heatmap` build no vector and never load numpy: an
interpreter start with numpy takes about twice as long as one without.
"""


def __getattr__(name: str):
    import numpy

    value = getattr(numpy, name)
    globals()[name] = value
    return value
