"""Report bytes of every campaign's default config, pinned by SHA-256.

``quadform-orbits`` is pinned at four primes in ``tests/test_campaigns.py``;
every other campaign is pinned here at the default ``SessionConfig``, in
both kinds where it reads ``kind`` and at seeds 0 and 1 where it reads
``seed``.  A refactor of any layer must leave these bytes as they are.
"""

import hashlib

import pytest

from waldq import campaigns
from waldq.campaigns import SessionConfig

#: SHA-256 of ``render_report(run_campaign(name, SessionConfig(kind=kind,
#: seed=seed)))`` by (name, kind, seed).
REPORT_SHA256 = {
    ("min-orbit", "split", 0): "5512a26447a1322124970793fbf4fc4db14416fc320af38b790d1f2bcba57935",
    ("min-orbit", "ramified", 0): "8781fdc86d125f4289066333de01198ac2c937f154fa87bc23251a9ee98f78d5",
    ("stratum-dim", "split", 0): "ae191c4a75f1489b7ba9a5debba1891b400dee47b6d08f6d5272aec0b4dd8b85",
    ("stratum-dim", "ramified", 0): "95b0c069b19f34918c6eaa3f39f247dc391232754939edc1e83d3e714170707e",
    ("counts", "split", 0): "5cd51180af226577bd95e0b08e4e0a79b4fba8027285940a6b3e144875e6c496",
    ("hecke-tables", "split", 0): "1c1d94df7c6e8c12cf64f0caba825530fd3095b7bd84c0211cd4a42de9f65996",
    ("hecke-tables", "split", 1): "1aa5877788fb24b688b4d96dd4482b6bb96018d382cba3c8faac81ac22a63384",
    ("ic-basis", "split", 0): "3a93ae7a818e8f0e33a1d4ed45e4acbdd6cd5b97a42e3dae9d67ef9845106a74",
    ("ic-basis", "ramified", 0): "3329b58e021e23006e51cc83c6ff789c3fd08c32f25099ad2e38cbdf8f1914ee",
    ("multone", "split", 0): "9df65a6c7a77b3647f147c3174dd1c0a644446bfe04d2cf8771329dec201d1e8",
    ("multone", "ramified", 0): "cf6db8d59946ad8cda7e62e2b6186325debfe13817405b660e0f202c50b46a70",
    ("cs-matrix", "split", 0): "1270094f10731dd5894936dc1e9afb34e8dac13c025ae708cddd11d31ffa150c",
    ("cs-matrix", "ramified", 0): "4b1d7b5cdcc72545bed0bf65360ef6d7dd1a5b9ffe815eec92b3657d9fb881bb",
    ("module-axiom", "split", 0): "c2a09263cdc10e60396a0e9349664374309fa1ce5be363106fc89c2cbe6f714a",
    ("module-axiom", "split", 1): "39f207ca99467bcafc14a54c185a823083eb9bd12650de540fe4fb4dba8b8087",
    ("module-axiom", "ramified", 0): "c3da5f6997070af4adeccb9e68504ed1dd7458452e35b76e0f5a2913a8492dfd",
    ("module-axiom", "ramified", 1): "5caec187a6d101c1616c051b41f9edf4c5bcae19f16cc178b0e3ba995714c244",
    ("eigen", "split", 0): "001987ad6f47ad8297995bc0a0a49072c7ff8356fa961b7d54143c3819b4a6ed",
    ("eigen", "split", 1): "5fe1ecc705a126f82b24b3a55cd2ef0ed5f81b5c2ce8b6039866f24bfc8c802d",
    ("eigen", "ramified", 0): "16717806ba437f4f92e53ef7f2bdc9280e9524236b7eb8fb24acf7b338932cd0",
    ("eigen", "ramified", 1): "ccdf9b047f57477ce905e33d63b2d55091ede26b5c9afe7bbb34c4172133f209",
    ("isotropic", "split", 0): "08e2d4de498b0e00d075eb3d14641a72d376dccb34b7b2a073573e3b3a159125",
}


@pytest.mark.parametrize("name, kind, seed", sorted(REPORT_SHA256))
def test_default_report_bytes_are_pinned(name, kind, seed):
    report = campaigns.run_campaign(name, SessionConfig(kind=kind, seed=seed))
    digest = hashlib.sha256(campaigns.render_report(report).encode()).hexdigest()
    assert digest == REPORT_SHA256[name, kind, seed]


def test_every_other_campaign_is_pinned():
    pinned = {name for name, _kind, _seed in REPORT_SHA256}
    assert pinned == set(campaigns.CAMPAIGNS) - {"quadform-orbits"}
