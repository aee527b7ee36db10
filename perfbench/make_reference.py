"""Regenerate ``campaign_reference.json``: the digest of the aggregated
results of the first campaigns of ``campaign_ofdm_array`` at the
default seed.

    python3 perfbench/make_reference.py [--campaigns 64]

Run it only when the campaign workload's definition changes on purpose;
a digest that moves for any other reason is the regression the
reference exists to catch.
"""

from __future__ import annotations

import argparse
import json
import warnings

from common import pin_environment, require_source, scratch


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--campaigns", type=int, default=64)
    args = ap.parse_args(argv)
    pin_environment()
    require_source()
    from repro.fastpath import FastpathFallbackWarning
    from workloads import CampaignOfdmArray, digest

    warnings.simplefilter("ignore", FastpathFallbackWarning)
    wl = CampaignOfdmArray(CampaignOfdmArray.REFERENCE_SEED, 0)
    with scratch("reference") as wd:
        digests = [digest(wl.run_one(r, wd).results)
                   for r in range(args.campaigns)]
    with open(wl.REFERENCE, "w") as fh:
        json.dump({"seed": wl.REFERENCE_SEED, "digests": digests}, fh,
                  indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
