"""Fork choice: the chain tip a finished run settles on.

The paper's honest miners use the longest-chain rule (footnote 2 of the paper notes
that although Ethereum describes GHOST, its implementation effectively follows the
longest chain).  Ties between equally long public branches during a run are the
whole point of the ``gamma`` parameter, which the simulators apply themselves; the
end-of-run settlement needs a single deterministic tip, which :func:`best_tip_id`
provides.
"""

from __future__ import annotations

from ..errors import ChainStructureError
from .arrays import ArrayBlockTree


def best_tip_id(tree: ArrayBlockTree, *, published_only: bool) -> int:
    """Id of the longest-chain tip: maximum height, then earliest creation, then lowest id."""
    tip_ids = tree.tip_ids(published_only=published_only)
    if not tip_ids:
        raise ChainStructureError("fork choice found no eligible tips")
    height_of = tree.height_of
    created_at_of = tree.created_at_of
    return min(tip_ids, key=lambda tip: (-height_of(tip), created_at_of(tip), tip))
