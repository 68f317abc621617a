//! # scidive-sip — a SIP stack for the SCIDIVE reproduction
//!
//! Implements the RFC 3261 subset the paper's testbed exercises: message
//! grammar and wire parsing, the INVITE/REGISTER/BYE/CANCEL/MESSAGE
//! method set (MESSAGE per RFC 3428 for the fake-IM attack), digest
//! authentication (RFC 2617, with a self-contained MD5), transaction and
//! dialog state machines, and a minimal SDP (RFC 4566) for negotiating
//! the RTP flows that the IDS's cross-protocol correlation hinges on.
//!
//! The crate is transport-agnostic: it produces and consumes bytes, and
//! expresses all protocol timing in plain milliseconds, so it works
//! identically under `scidive-netsim`'s virtual clock and in unit tests.
//!
//! ## Example: build, serialize, re-parse an INVITE
//!
//! ```
//! use scidive_sip::prelude::*;
//!
//! let mut builder = RequestBuilder::new(Method::Invite, "sip:bob@10.0.0.2".parse()?);
//! builder
//!     .from(NameAddr::new("sip:alice@10.0.0.1".parse()?).with_tag("a1"))
//!     .to(NameAddr::new("sip:bob@10.0.0.2".parse()?))
//!     .call_id("c1@10.0.0.1")
//!     .cseq(CSeq::new(1, Method::Invite))
//!     .via(Via::udp("10.0.0.1:5060", "z9hG4bK1"));
//! let invite = builder.build();
//!
//! let parsed = SipMessage::parse(&invite.to_bytes())?;
//! assert_eq!(parsed.method(), Some(Method::Invite));
//! assert!(parsed.format_violations().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod auth;
pub mod dialog;
pub mod header;
pub mod md5;
pub mod method;
pub mod msg;
pub mod parse;
pub mod scan;
pub mod sdp;
pub mod status;
pub mod txn;
pub mod uri;

/// Convenient glob import of the common SIP types.
pub mod prelude {
    pub use crate::auth::{DigestChallenge, DigestCredentials};
    pub use crate::dialog::{Dialog, DialogRole, DialogState};
    pub use crate::header::{CSeq, Header, HeaderName, Headers, NameAddr, Via};
    pub use crate::method::Method;
    pub use crate::msg::{response_to, RequestBuilder, SipMessage, SipView, StartLine};
    pub use crate::parse::{looks_like_sip, SipParseError};
    pub use crate::sdp::{MediaDesc, SessionDescription};
    pub use crate::status::StatusCode;
    pub use crate::txn::{ClientTransaction, ClientTxnAction, ClientTxnState, ServerTransaction};
    pub use crate::uri::SipUri;
}
