"""Prior-art defences the paper argues against.

Each baseline is a *third-party* alert service plus a *human* operator:
detection happens outside the victim's network (from batch archives or live
streams), the operator must verify the notification manually, and mitigation
is a manual router reconfiguration.  The paper's motivation quantifies this
pipeline: 2-hour RIBs / 15-minute update files, and ~80 minutes for YouTube
to react to the 2008 hijack.

None of that needs a second experiment: a third-party defender is ARTEMIS on
one slow feed with a human between the alert and the routers.
:class:`~repro.baselines.operator.OperatorModel` is the human;
:data:`~repro.baselines.profiles.PROFILES` names the three defenders as
scenario values (``argus``, ``phas``, ``rib-dump``).
"""

from repro.baselines.operator import OperatorModel
from repro.baselines.profiles import PROFILES

__all__ = ["PROFILES", "OperatorModel"]
