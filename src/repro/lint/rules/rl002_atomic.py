"""RL002 atomic-publication: renames happen only in blessed helpers.

PR 2's durability story and PR 4's resumable staging both hinge on a
single publication idiom: write to a ``*.tmp-<pid>`` sibling, fsync,
then ``os.replace`` onto the final name — and on that idiom living in
a handful of audited helpers.  A raw ``os.rename`` sprinkled anywhere
else can publish a torn file that fsck then has to distrust.

Flagged: any call to ``os.rename``, ``os.replace``, ``os.renames`` or
``shutil.move`` outside the blessed modules.

Blessed (each implements the fsync-then-rename protocol):
``pipeline/staging.py`` (the staging helpers themselves) and
``core/packing/external.py`` (the external sort's crash-clean spill
runs).  The page store is not on the list: it commits by an in-place
superblock write and renames nothing.  New publication sites must call
:func:`repro.pipeline.staging.atomic_write_bytes` and friends instead
of earning a spot on this list.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, register, resolve_call_name

__all__ = ["AtomicPublication"]

BANNED = ("os.rename", "os.replace", "os.renames", "shutil.move")

#: Modules allowed to move files into place.
BLESSED = (
    "repro/pipeline/staging.py",
    "repro/core/packing/external.py",
)


@register
class AtomicPublication(Rule):
    id = "RL002"
    name = "atomic-publication"
    invariant = ("files are published only via the blessed "
                 "fsync-then-rename staging helpers")
    path_fragments = ()  # every file, minus the blessed list below

    def applies_to(self, path: str) -> bool:
        return not any(path.endswith(blessed) for blessed in BLESSED)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, ctx.aliases)
            if name in BANNED:
                yield self.finding(
                    ctx, node,
                    f"raw {name} outside the blessed staging helpers; "
                    f"publish via repro.pipeline.staging "
                    f"(fsync-then-rename) instead",
                )
