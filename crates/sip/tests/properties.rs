//! Property-based tests for the SIP stack: wire-format roundtrips, MD5
//! correctness under arbitrary chunking, digest self-consistency.

use proptest::prelude::*;
use scidive_sip::auth::{DigestChallenge, DigestCredentials};
use scidive_sip::header::{CSeq, NameAddr, Via};
use scidive_sip::md5::{md5, Md5};
use scidive_sip::method::Method;
use scidive_sip::msg::{response_to, RequestBuilder, SipMessage};
use scidive_sip::sdp::SessionDescription;
use scidive_sip::status::StatusCode;
use scidive_sip::uri::SipUri;
use std::net::Ipv4Addr;

fn method() -> impl Strategy<Value = Method> {
    proptest::sample::select(Method::ALL.to_vec())
}

fn token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9]{0,11}".prop_map(|s| s)
}

fn host() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{1,8}(\\.[a-z]{2,5}){0,2}",
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| format!("10.0.{a}.{b}")),
    ]
}

fn uri() -> impl Strategy<Value = SipUri> {
    (proptest::option::of(token()), host(), proptest::option::of(1u16..65535)).prop_map(
        |(user, host, port)| {
            let mut u = match user {
                Some(user) => SipUri::new(user, host),
                None => SipUri::host_only(host),
            };
            u.port = port;
            u
        },
    )
}

proptest! {
    #[test]
    fn uri_roundtrip(u in uri()) {
        let text = u.to_string();
        let back: SipUri = text.parse().unwrap();
        prop_assert_eq!(back, u);
    }

    #[test]
    fn name_addr_roundtrip(
        u in uri(),
        display in proptest::option::of("[a-zA-Z ]{1,16}"),
        tag in proptest::option::of(token()),
    ) {
        let mut na = NameAddr::new(u);
        na.display = display
            .map(|d| d.trim().to_owned())
            .filter(|d| !d.is_empty());
        if let Some(tag) = tag {
            na = na.with_tag(tag);
        }
        let text = na.to_string();
        let back: NameAddr = text.parse().unwrap();
        prop_assert_eq!(back, na);
    }

    #[test]
    fn cseq_roundtrip(seq in any::<u32>(), m in method()) {
        let c = CSeq::new(seq, m);
        let back: CSeq = c.to_string().parse().unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn via_roundtrip(h in host(), port in 1u16..65535, branch in token()) {
        let via = Via::udp(format!("{h}:{port}"), format!("z9hG4bK{branch}"));
        let back: Via = via.to_string().parse().unwrap();
        prop_assert_eq!(back, via);
    }

    #[test]
    fn request_wire_roundtrip(
        m in method(),
        target in uri(),
        from_uri in uri(),
        tag in token(),
        call_id in "[a-zA-Z0-9@.-]{1,24}",
        seq in 1u32..100_000,
        body in proptest::collection::vec(0x20u8..0x7f, 0..128),
    ) {
        let mut b = RequestBuilder::new(m, target);
        b.from(NameAddr::new(from_uri.clone()).with_tag(&tag))
            .to(NameAddr::new(from_uri))
            .call_id(&call_id)
            .cseq(CSeq::new(seq, m))
            .via(Via::udp("10.0.0.1:5060", "z9hG4bKpb"));
        if !body.is_empty() {
            b.body("text/plain", body.clone());
        }
        let msg = b.build();
        let parsed = SipMessage::parse(&msg.to_bytes()).unwrap();
        prop_assert_eq!(parsed.method(), Some(m));
        prop_assert_eq!(parsed.call_id().unwrap(), call_id);
        prop_assert_eq!(parsed.cseq().unwrap(), CSeq::new(seq, m));
        prop_assert_eq!(&parsed.body[..], &body[..]);
        // Second roundtrip is a fixed point.
        let again = SipMessage::parse(&parsed.to_bytes()).unwrap();
        prop_assert_eq!(again, parsed);
    }

    #[test]
    fn response_preserves_dialog_identifiers(
        code in 100u16..700,
        tag in token(),
    ) {
        let mut b = RequestBuilder::new(Method::Invite, "sip:b@lab".parse().unwrap());
        b.from(NameAddr::new("sip:a@lab".parse().unwrap()).with_tag("ta"))
            .to(NameAddr::new("sip:b@lab".parse().unwrap()))
            .call_id("c1")
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.1:5060", "z9hG4bK1"));
        let req = b.build();
        let resp = response_to(&req, StatusCode::new(code), Some(&tag));
        let parsed = SipMessage::parse(&resp.to_bytes()).unwrap();
        prop_assert_eq!(parsed.status().unwrap().code(), code);
        prop_assert_eq!(parsed.call_id().unwrap(), "c1");
        let from = parsed.from_().unwrap();
        prop_assert_eq!(from.tag(), Some("ta"));
        let to = parsed.to().unwrap();
        prop_assert_eq!(to.tag(), Some(tag.as_str()));
        let via = parsed.via_top().unwrap();
        prop_assert_eq!(via.branch(), Some("z9hG4bK1"));
    }

    #[test]
    fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = SipMessage::parse(&bytes);
    }

    #[test]
    fn md5_chunking_invariance(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let oneshot = md5(&data);
        let mut ctx = Md5::new();
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        points.push(0);
        points.push(data.len());
        points.sort_unstable();
        for pair in points.windows(2) {
            ctx.update(&data[pair[0]..pair[1]]);
        }
        prop_assert_eq!(ctx.finalize(), oneshot);
    }

    #[test]
    fn digest_answer_always_verifies(
        user in token(),
        password in "[ -~]{1,20}",
        realm in token(),
        nonce in token(),
        m in method(),
    ) {
        let challenge = DigestChallenge::new(realm, nonce);
        let creds = DigestCredentials::answer(&challenge, &user, &password, m, "sip:lab");
        prop_assert!(creds.verify(&password, m));
        // And a different password fails (passwords differing only by
        // our mutation below).
        let wrong = format!("{password}x");
        prop_assert!(!creds.verify(&wrong, m));
        // Header roundtrip.
        let parsed = DigestCredentials::parse(&creds.to_string()).unwrap();
        prop_assert_eq!(parsed, creds);
    }

    #[test]
    fn sdp_roundtrip(
        user in token(),
        a in any::<u8>(), b in any::<u8>(),
        port in 1024u16..65000,
        version in 1u64..1000,
    ) {
        let mut sdp = SessionDescription::audio_offer(
            user, Ipv4Addr::new(10, 0, a, b), port,
        );
        sdp.session_version = version;
        let back: SessionDescription = sdp.to_string().parse().unwrap();
        prop_assert_eq!(back, sdp);
    }
}
