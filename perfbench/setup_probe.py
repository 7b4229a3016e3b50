"""Set-up time of a fresh interpreter: from before ``import tmflevels.cli``
until the first trivial request has returned.  This covers the imports, the
argument parser build and the s1-table load.  Prints one JSON object."""

import io
import json
import time

t0 = time.perf_counter()
import tmflevels.cli  # noqa: E402  (the import is what is timed)

out = io.StringIO()
rc = tmflevels.cli.main(["duality", "--n", "1"], out)
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "rc": rc, "stdout": out.getvalue()}))
