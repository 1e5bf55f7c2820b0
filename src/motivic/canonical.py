"""The canonical JSON text of every document the engine writes: sorted keys
and compact separators, so identical values give byte-identical text.  It
uses the standard library alone, so the CLI writes its error payloads without
loading the class layers."""

import json


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
