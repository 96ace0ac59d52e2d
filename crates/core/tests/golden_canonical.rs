//! Golden canonical keys and fingerprints.
//!
//! Cache snapshots, replay journals and every optimize reply carry the
//! canonical encoding's FNV-1a fingerprint, so its bytes are a wire
//! format: this file pins them for fixed instances. The instances cover
//! the cases a rewrite of the encoder is most likely to get wrong —
//! multi-limb sizes, access costs and memory (including values exactly at
//! 2^64 and at a 19/20-digit decimal chunk boundary), more than ten
//! vertices (so `e 1 10 …` sorts before `e 1 2 …` as bytes), selectivities
//! written unreduced (`2/4`, `3/6`) or as a bare integer, edges written
//! with `u > v`, and comment/blank/tab-separated lines in the input.

use aqo_core::fingerprint::{canonical_qoh, canonical_qon, fingerprint_qoh, fingerprint_qon};
use aqo_core::textio::{qoh_from_text, qon_from_text};

const QON_TEXT: &str = "\
# golden QO_N instance: 12 relations, multi-limb values
qon
vertices 12
size 0 123456789012345678901234567890
size 1 18446744073709551616
size 2 18446744073709551615
size 3 10000000000000000000

size 4 9999999999999999999
size 5 7
size 6 1000
size 7 2000
size 8 40
size 9 1
size 10 500
size 11 340282366920938463463374607431768211456
edge 0 1 1/2 100000000000000000000000000000 10000000000000000000
edge 10 2 2/4 300 18446744073709551615
edge 1 2 1/3 18446744073709551616 9223372036854775808
edge 2 3 1 18446744073709551615 10000000000000000000
edge\t3 4\t1/10 5000000000000000000 1000000000000000000
  edge 4 5 7/9 9999999999999999999 6
edge 5 6 1/7 1 143
edge 6 7 1/1000 1 2
edge 7 8 3/6 1500 20
edge 8 9 1/4 10 1
edge 9 10 1/2 1 499
edge 11 0 1/5 100000000000000000000000000000000000000 24691357802469135780246913578
edge 10 11 1/2 250 340282366920938463463374607431768211456
edge 1 10 1/8 2305843009213693952 63
";

const QON_CANONICAL: &str = "\
qon 12
t 0 123456789012345678901234567890
t 1 18446744073709551616
t 2 18446744073709551615
t 3 10000000000000000000
t 4 9999999999999999999
t 5 7
t 6 1000
t 7 2000
t 8 40
t 9 1
t 10 500
t 11 340282366920938463463374607431768211456
e 0 1 1/2 100000000000000000000000000000 10000000000000000000
e 0 11 1/5 24691357802469135780246913578 100000000000000000000000000000000000000
e 1 10 1/8 2305843009213693952 63
e 1 2 1/3 18446744073709551616 9223372036854775808
e 10 11 1/2 250 340282366920938463463374607431768211456
e 2 10 1/2 18446744073709551615 300
e 2 3 1/1 18446744073709551615 10000000000000000000
e 3 4 1/10 5000000000000000000 1000000000000000000
e 4 5 7/9 9999999999999999999 6
e 5 6 1/7 1 143
e 6 7 1/1000 1 2
e 7 8 1/2 1500 20
e 8 9 1/4 10 1
e 9 10 1/2 1 499
";

const QON_FINGERPRINT: u64 = 0xbd81_12a4_b105_3caf;

const QOH_TEXT: &str = "\
qoh
vertices 11
memory 340282366920938463463374607431768211457
eta 2 3
size 0 18446744073709551616
size 1 10000000000000000000
size 2 9999999999999999999
size 3 3
size 4 4
size 5 5
size 6 6
size 7 7
size 8 8
size 9 9
size 10 123456789012345678901234567890
edge 0 1 1/2
edge 2 1 2/4
edge 1 10 1/100000000000000000000
edge 2 3 1
edge 3 4 6/9
edge 4 5 1/5
edge 5 6 1/6
edge 6 7 1/7
edge 7 8 1/8
edge 8 9 1/9
edge 9 10 1/10
";

const QOH_CANONICAL: &str = "\
qoh 11
m 340282366920938463463374607431768211457
eta 2/3
t 0 18446744073709551616
t 1 10000000000000000000
t 2 9999999999999999999
t 3 3
t 4 4
t 5 5
t 6 6
t 7 7
t 8 8
t 9 9
t 10 123456789012345678901234567890
e 0 1 1/2
e 1 10 1/100000000000000000000
e 1 2 1/2
e 2 3 1/1
e 3 4 2/3
e 4 5 1/5
e 5 6 1/6
e 6 7 1/7
e 7 8 1/8
e 8 9 1/9
e 9 10 1/10
";

const QOH_FINGERPRINT: u64 = 0x9e10_6011_3258_54f0;

#[test]
fn qon_canonical_key_is_pinned() {
    let inst = qon_from_text(QON_TEXT).expect("golden QO_N text parses");
    assert_eq!(canonical_qon(&inst), QON_CANONICAL);
    assert_eq!(fingerprint_qon(&inst), QON_FINGERPRINT, "{:#018x}", fingerprint_qon(&inst));
}

#[test]
fn qoh_canonical_key_is_pinned() {
    let inst = qoh_from_text(QOH_TEXT).expect("golden QO_H text parses");
    assert_eq!(canonical_qoh(&inst), QOH_CANONICAL);
    assert_eq!(fingerprint_qoh(&inst), QOH_FINGERPRINT, "{:#018x}", fingerprint_qoh(&inst));
}
