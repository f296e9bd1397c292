"""Storage schemes: the XML→relational shredders.

Every scheme implements the :class:`~repro.storage.base.MappingScheme`
interface; the registry in :mod:`repro.core.registry` exposes them by name:

========== ===========================================================
``edge``     Edge table (Florescu & Kossmann, 1999)
``binary``   Label-partitioned edge tables (ibid.)
``universal``Universal table (denormalized strawman)
``interval`` Pre/size/level region encoding (Grust's accelerator)
``dewey``    Dewey order path labels (Tatarinov et al., 2002)
``xrel``     Path + region mapping (Yoshikawa et al., 2001)
``inlining`` DTD-driven shared inlining (Shanmugasundaram et al., 1999)
========== ===========================================================
"""

from repro.storage.base import BulkSession, MappingScheme, ShredResult
from repro.storage.numbering import NodeRecord

__all__ = [
    "BulkSession",
    "MappingScheme",
    "NodeRecord",
    "ShredResult",
]
