"""An alias that perfbench's ``core.run`` layer boundary resolves.

``perfbench/layers.py`` names ``repro.core.batch_engine.BatchCore.run``
beside ``OOOCore.run``.  The fast path that ``BatchCore`` once turned on
is the core's own behaviour now (:meth:`repro.core.ooo_core.OOOCore.run`),
so the name is :class:`~repro.core.ooo_core.OOOCore` itself, and goes
once perfbench stops naming it (ROADMAP item 1, step 0).
"""

from repro.core.ooo_core import OOOCore

BatchCore = OOOCore
