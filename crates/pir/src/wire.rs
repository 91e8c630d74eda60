//! Wire serialization for queries, responses, client key material, and
//! the session frames the serving runtime (`ive_serve`) speaks.
//!
//! The paper's communication accounting (§VI-C: "each query transfers
//! only a few MBs ... through PCIe") is measured here on actual encodings
//! rather than estimated: residues are packed at 4 bytes/word (the
//! special primes are 28-bit), with a small self-describing header.
//!
//! Every frame starts with the same 6-byte header: a 4-byte magic, a
//! format version byte, and a tag byte identifying the frame type. The
//! session frames implement the paper's ARK key-reuse motif (§V): a
//! client uploads its bulky `ClientKeys` once in a [`Tag::Hello`]
//! handshake, receives a session id in a [`Tag::Welcome`], and every
//! subsequent [`Tag::SessionQuery`] carries only the small per-query
//! material plus that id.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use ive_he::modswitch::SwitchedCiphertext;
use ive_he::{BfvCiphertext, HeParams, RgswCiphertext, SubsKey};
use ive_math::rns::{Form, RnsPoly};

use crate::client::{ClientKeys, PirQuery};
use crate::keyword::KvSchema;
use crate::kspir::{KsPirKeys, KsPirParams, KsPirQuery};
use crate::update::RecordUpdate;
use crate::PirError;

/// Format magic (`"IVE1"`).
const MAGIC: u32 = 0x4956_4531;

/// Wire format version carried in every header. Version 2 added the
/// version byte itself plus the `Response`, `ClientKeys`, and session
/// frames; version-1 frames (no version byte) are rejected.
pub const VERSION: u8 = 2;

/// Tags for the framed object types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// One RNS polynomial.
    Poly = 1,
    /// A BFV ciphertext (two polynomials).
    Bfv = 2,
    /// An RGSW ciphertext (`2ℓ` RLWE rows).
    Rgsw = 3,
    /// A full PIR query (packed ciphertext + RGSW selection bits).
    Query = 4,
    /// A server response (one BFV ciphertext).
    Response = 5,
    /// A client's full evaluation-key set (`log D0` `evk_r` keys).
    ClientKeys = 6,
    /// Session handshake, client → server: the one-time key upload.
    Hello = 7,
    /// Session handshake, server → client: the assigned session id.
    Welcome = 8,
    /// An online query bound to a session (session id + request id).
    SessionQuery = 9,
    /// The response to one [`Tag::SessionQuery`] (echoes the request id).
    SessionResponse = 10,
    /// A per-request server-side failure report.
    Error = 11,
    /// A batch of row put/delete deltas for the live database
    /// (client → server; see [`crate::update`]).
    UpdateRow = 12,
    /// The acknowledgement of one [`Tag::UpdateRow`] batch: the epoch it
    /// committed as and how many deltas it carried.
    UpdateAck = 13,
    /// Keyword-session handshake, client → server: the one-time upload
    /// of the client's `log N` trace keys (see [`crate::kspir`]).
    KsHello = 14,
    /// Keyword-session handshake reply: the session id plus the server's
    /// keyword schema (hash seed + table geometry, see
    /// [`crate::keyword::KvSchema`]).
    KsWelcome = 15,
    /// A keyword-PIR scalar query bound to a keyword session.
    KsQuery = 16,
    /// The response to one [`Tag::KsQuery`] (echoes the request id).
    KsResponse = 17,
    /// A modulus-switched session response (§VII response compression;
    /// see [`ive_he::modswitch`]).
    CompressedResponse = 18,
    /// A key→value put/delete for the live keyword store.
    KvUpdate = 19,
    /// A live-stats scrape request (client → server, any connection).
    GetStats = 20,
    /// The reply to one [`Tag::GetStats`]: the full [`StatsReport`].
    StatsResponse = 21,
}

impl Tag {
    /// The tag for a raw byte, if it names a known frame type.
    pub fn from_byte(b: u8) -> Option<Tag> {
        match b {
            1 => Some(Tag::Poly),
            2 => Some(Tag::Bfv),
            3 => Some(Tag::Rgsw),
            4 => Some(Tag::Query),
            5 => Some(Tag::Response),
            6 => Some(Tag::ClientKeys),
            7 => Some(Tag::Hello),
            8 => Some(Tag::Welcome),
            9 => Some(Tag::SessionQuery),
            10 => Some(Tag::SessionResponse),
            11 => Some(Tag::Error),
            12 => Some(Tag::UpdateRow),
            13 => Some(Tag::UpdateAck),
            14 => Some(Tag::KsHello),
            15 => Some(Tag::KsWelcome),
            16 => Some(Tag::KsQuery),
            17 => Some(Tag::KsResponse),
            18 => Some(Tag::CompressedResponse),
            19 => Some(Tag::KvUpdate),
            20 => Some(Tag::GetStats),
            21 => Some(Tag::StatsResponse),
            _ => None,
        }
    }

    /// The frame type's name, for error messages.
    pub fn name(self) -> &'static str {
        match self {
            Tag::Poly => "Poly",
            Tag::Bfv => "Bfv",
            Tag::Rgsw => "Rgsw",
            Tag::Query => "Query",
            Tag::Response => "Response",
            Tag::ClientKeys => "ClientKeys",
            Tag::Hello => "Hello",
            Tag::Welcome => "Welcome",
            Tag::SessionQuery => "SessionQuery",
            Tag::SessionResponse => "SessionResponse",
            Tag::Error => "Error",
            Tag::UpdateRow => "UpdateRow",
            Tag::UpdateAck => "UpdateAck",
            Tag::KsHello => "KsHello",
            Tag::KsWelcome => "KsWelcome",
            Tag::KsQuery => "KsQuery",
            Tag::KsResponse => "KsResponse",
            Tag::CompressedResponse => "CompressedResponse",
            Tag::KvUpdate => "KvUpdate",
            Tag::GetStats => "GetStats",
            Tag::StatsResponse => "StatsResponse",
        }
    }
}

/// Describes a raw tag byte by name when it is a known frame type.
fn describe_tag(b: u8) -> String {
    match Tag::from_byte(b) {
        Some(tag) => format!("{} (tag {b})", tag.name()),
        None => format!("unknown tag {b}"),
    }
}

fn put_header(buf: &mut BytesMut, tag: Tag) {
    buf.put_u32(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(tag as u8);
}

/// Consumes and validates the magic + version, returning the raw tag
/// byte. The single header parser behind both [`peek_tag`] and the typed
/// decoders, so they can never disagree on what a valid frame is.
fn read_header(buf: &mut impl Buf) -> Result<u8, PirError> {
    if buf.remaining() < 6 {
        return Err(PirError::Wire("truncated header".into()));
    }
    if buf.get_u32() != MAGIC {
        return Err(PirError::Wire("bad magic".into()));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(PirError::Wire(format!(
            "unsupported wire version {version} (this build speaks {VERSION})"
        )));
    }
    Ok(buf.get_u8())
}

fn check_header(buf: &mut impl Buf, tag: Tag) -> Result<(), PirError> {
    let got = read_header(buf)?;
    if got != tag as u8 {
        return Err(PirError::Wire(format!(
            "expected {} frame (tag {}), got {}",
            tag.name(),
            tag as u8,
            describe_tag(got)
        )));
    }
    Ok(())
}

/// Reads the tag of a frame without consuming it — the dispatch point for
/// a server demultiplexing incoming session frames.
///
/// # Errors
/// Fails on truncation, bad magic, wrong version, or an unknown tag.
pub fn peek_tag(bytes: &Bytes) -> Result<Tag, PirError> {
    let mut buf = bytes.clone();
    let raw = read_header(&mut buf)?;
    Tag::from_byte(raw).ok_or_else(|| PirError::Wire(format!("unknown tag {raw}")))
}

/// The request id a server reply frame answers — the leading `u64` of
/// every response, ack, stats and error frame — or `None` for frames that
/// carry none (the handshake replies, and every request frame). The hook a
/// client matches replies to its outstanding requests with, without
/// decoding the payload.
///
/// # Errors
/// Fails on a bad header, an unknown tag, or a reply too short to hold
/// its id.
pub fn peek_request_id(bytes: &Bytes) -> Result<Option<u64>, PirError> {
    let tag = peek_tag(bytes)?;
    let mut buf = bytes.clone();
    read_header(&mut buf)?;
    match tag {
        Tag::SessionResponse
        | Tag::CompressedResponse
        | Tag::KsResponse
        | Tag::UpdateAck
        | Tag::StatsResponse
        | Tag::Error => {
            if buf.remaining() < 8 {
                return Err(PirError::Wire(format!("truncated {} frame", tag.name())));
            }
            Ok(Some(buf.get_u64()))
        }
        _ => Ok(None),
    }
}

/// Serializes one polynomial (form byte + residue words).
pub fn write_poly(buf: &mut BytesMut, poly: &RnsPoly) {
    put_header(buf, Tag::Poly);
    buf.put_u8(match poly.form() {
        Form::Coeff => 0,
        Form::Ntt => 1,
    });
    let k = poly.ctx().basis().len();
    let n = poly.ctx().n();
    buf.put_u16(k as u16);
    buf.put_u32(n as u32);
    for m in 0..k {
        for &w in poly.residue(m) {
            debug_assert!(w < u32::MAX as u64, "residue exceeds 4-byte packing");
            buf.put_u32(w as u32);
        }
    }
}

/// Deserializes one polynomial against the given parameters.
///
/// # Errors
/// Fails on truncation, bad framing, or shape/value mismatch.
pub fn read_poly(he: &HeParams, buf: &mut impl Buf) -> Result<RnsPoly, PirError> {
    check_header(buf, Tag::Poly)?;
    if buf.remaining() < 7 {
        return Err(PirError::Wire("truncated poly header".into()));
    }
    let form = match buf.get_u8() {
        0 => Form::Coeff,
        1 => Form::Ntt,
        other => return Err(PirError::Wire(format!("unknown form {other}"))),
    };
    let k = buf.get_u16() as usize;
    let n = buf.get_u32() as usize;
    let ring = he.ring();
    if k != ring.basis().len() || n != ring.n() {
        return Err(PirError::Wire(format!(
            "shape {k}x{n} does not match ring {}x{}",
            ring.basis().len(),
            ring.n()
        )));
    }
    if buf.remaining() < 4 * k * n {
        return Err(PirError::Wire("truncated residues".into()));
    }
    let mut poly = RnsPoly::zero(ring, form);
    for m in 0..k {
        let q = ring.basis().moduli()[m].value();
        for w in poly.residue_mut(m) {
            let v = buf.get_u32() as u64;
            if v >= q {
                return Err(PirError::Wire(format!("residue {v} >= modulus {q}")));
            }
            *w = v;
        }
    }
    Ok(poly)
}

/// Serializes a BFV ciphertext.
pub fn write_bfv(buf: &mut BytesMut, ct: &BfvCiphertext) {
    put_header(buf, Tag::Bfv);
    write_poly(buf, &ct.a);
    write_poly(buf, &ct.b);
}

/// Deserializes a BFV ciphertext.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn read_bfv(he: &HeParams, buf: &mut impl Buf) -> Result<BfvCiphertext, PirError> {
    check_header(buf, Tag::Bfv)?;
    let a = read_poly(he, buf)?;
    let b = read_poly(he, buf)?;
    Ok(BfvCiphertext { a, b })
}

/// Serializes an RGSW ciphertext.
pub fn write_rgsw(buf: &mut BytesMut, ct: &RgswCiphertext) {
    put_header(buf, Tag::Rgsw);
    buf.put_u16(ct.rows().len() as u16);
    for row in ct.rows() {
        write_poly(buf, &row.a);
        write_poly(buf, &row.b);
    }
}

/// Deserializes an RGSW ciphertext.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn read_rgsw(he: &HeParams, buf: &mut impl Buf) -> Result<RgswCiphertext, PirError> {
    check_header(buf, Tag::Rgsw)?;
    if buf.remaining() < 2 {
        return Err(PirError::Wire("truncated row count".into()));
    }
    let rows = buf.get_u16() as usize;
    if rows != 2 * he.gadget().ell() {
        return Err(PirError::Wire(format!(
            "RGSW with {rows} rows, expected {}",
            2 * he.gadget().ell()
        )));
    }
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let a = read_poly(he, buf)?;
        let b = read_poly(he, buf)?;
        out.push(ive_he::rgsw::RgswRow { a, b });
    }
    Ok(RgswCiphertext::from_rows(out))
}

/// The query body shared by [`Tag::Query`] and [`Tag::SessionQuery`].
fn write_query_body(buf: &mut BytesMut, query: &PirQuery) {
    buf.put_u16(query.row_bits().len() as u16);
    write_bfv(buf, query.packed());
    for bit in query.row_bits() {
        write_rgsw(buf, bit);
    }
}

fn read_query_body(he: &HeParams, buf: &mut impl Buf) -> Result<PirQuery, PirError> {
    if buf.remaining() < 2 {
        return Err(PirError::Wire("truncated bit count".into()));
    }
    let bits = buf.get_u16() as usize;
    let packed = read_bfv(he, buf)?;
    let mut row_bits = Vec::with_capacity(bits);
    for _ in 0..bits {
        row_bits.push(read_rgsw(he, buf)?);
    }
    Ok(PirQuery::from_parts(packed, row_bits))
}

fn check_drained(buf: &impl Buf) -> Result<(), PirError> {
    if buf.has_remaining() {
        return Err(PirError::Wire(format!("{} trailing bytes", buf.remaining())));
    }
    Ok(())
}

/// Serializes a full query (packed ciphertext + RGSW bits).
pub fn encode_query(query: &PirQuery) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::Query);
    write_query_body(&mut buf, query);
    buf.freeze()
}

/// Deserializes a full query.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_query(he: &HeParams, bytes: &Bytes) -> Result<PirQuery, PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::Query)?;
    let query = read_query_body(he, &mut buf)?;
    check_drained(&buf)?;
    Ok(query)
}

/// Serializes a server response (one ciphertext) as a tagged frame.
pub fn encode_response(ct: &BfvCiphertext) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::Response);
    write_bfv(&mut buf, ct);
    buf.freeze()
}

/// Deserializes a server response.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_response(he: &HeParams, bytes: &Bytes) -> Result<BfvCiphertext, PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::Response)?;
    let ct = read_bfv(he, &mut buf)?;
    check_drained(&buf)?;
    Ok(ct)
}

/// Serializes one `evk_r` entry (exponent + gadget rows) — the unit both
/// key-upload frames ([`Tag::Hello`], [`Tag::KsHello`]) are built from.
fn write_subs_key_entry(buf: &mut BytesMut, key: &SubsKey) {
    buf.put_u32(key.r() as u32);
    buf.put_u16(key.rows().len() as u16);
    for (a, b) in key.rows() {
        write_poly(buf, a);
        write_poly(buf, b);
    }
}

/// Deserializes and validates one `evk_r` entry.
fn read_subs_key_entry(he: &HeParams, buf: &mut impl Buf) -> Result<SubsKey, PirError> {
    if buf.remaining() < 6 {
        return Err(PirError::Wire("truncated evk header".into()));
    }
    let r = buf.get_u32() as usize;
    if r.is_multiple_of(2) || r >= 2 * he.n() {
        return Err(PirError::Wire(format!(
            "automorphism exponent {r} not odd in [1, 2N = {})",
            2 * he.n()
        )));
    }
    let rows = buf.get_u16() as usize;
    if rows != he.gadget().ell() {
        return Err(PirError::Wire(format!(
            "evk with {rows} rows, expected {}",
            he.gadget().ell()
        )));
    }
    let mut pairs = Vec::with_capacity(rows);
    for _ in 0..rows {
        let a = read_poly(he, buf)?;
        let b = read_poly(he, buf)?;
        pairs.push((a, b));
    }
    Ok(SubsKey::from_parts(r, pairs))
}

/// The `ClientKeys` body shared by [`Tag::ClientKeys`] and [`Tag::Hello`].
fn write_client_keys_body(buf: &mut BytesMut, keys: &ClientKeys) {
    buf.put_u16(keys.subs_keys().len() as u16);
    for key in keys.subs_keys() {
        write_subs_key_entry(buf, key);
    }
}

fn read_client_keys_body(he: &HeParams, buf: &mut impl Buf) -> Result<ClientKeys, PirError> {
    if buf.remaining() < 2 {
        return Err(PirError::Wire("truncated key count".into()));
    }
    let count = buf.get_u16() as usize;
    // A key per ExpandQuery level: log N bounds the legal count (§II-A).
    let max = usize::BITS as usize;
    if count > max {
        return Err(PirError::Wire(format!("{count} evaluation keys exceed the {max} cap")));
    }
    let mut subs = Vec::with_capacity(count);
    for _ in 0..count {
        subs.push(read_subs_key_entry(he, buf)?);
    }
    Ok(ClientKeys::from_subs_keys(subs))
}

/// Serializes a client's full evaluation-key set.
pub fn encode_client_keys(keys: &ClientKeys) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::ClientKeys);
    write_client_keys_body(&mut buf, keys);
    buf.freeze()
}

/// Deserializes a client's full evaluation-key set.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_client_keys(he: &HeParams, bytes: &Bytes) -> Result<ClientKeys, PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::ClientKeys)?;
    let keys = read_client_keys_body(he, &mut buf)?;
    check_drained(&buf)?;
    Ok(keys)
}

/// Serializes the session handshake: the one-time upload of the client's
/// evaluation keys (the paper's ARK key-registration step, §V).
pub fn encode_hello(keys: &ClientKeys) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::Hello);
    write_client_keys_body(&mut buf, keys);
    buf.freeze()
}

/// Deserializes a session handshake into the uploaded key set.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_hello(he: &HeParams, bytes: &Bytes) -> Result<ClientKeys, PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::Hello)?;
    let keys = read_client_keys_body(he, &mut buf)?;
    check_drained(&buf)?;
    Ok(keys)
}

/// Serializes the handshake reply: the session id under which the keys
/// were cached.
pub fn encode_welcome(session_id: u64) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::Welcome);
    buf.put_u64(session_id);
    buf.freeze()
}

/// Deserializes a handshake reply into the session id.
///
/// # Errors
/// Fails on framing errors.
pub fn decode_welcome(bytes: &Bytes) -> Result<u64, PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::Welcome)?;
    if buf.remaining() < 8 {
        return Err(PirError::Wire("truncated session id".into()));
    }
    let session = buf.get_u64();
    check_drained(&buf)?;
    Ok(session)
}

/// Serializes an online query: session id, client-chosen request id, and
/// the per-query material only (the keys stay cached server-side).
pub fn encode_session_query(session_id: u64, request_id: u64, query: &PirQuery) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::SessionQuery);
    buf.put_u64(session_id);
    buf.put_u64(request_id);
    write_query_body(&mut buf, query);
    buf.freeze()
}

/// Deserializes an online query into `(session_id, request_id, query)`.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_session_query(
    he: &HeParams,
    bytes: &Bytes,
) -> Result<(u64, u64, PirQuery), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::SessionQuery)?;
    if buf.remaining() < 16 {
        return Err(PirError::Wire("truncated session/request ids".into()));
    }
    let session = buf.get_u64();
    let request = buf.get_u64();
    let query = read_query_body(he, &mut buf)?;
    check_drained(&buf)?;
    Ok((session, request, query))
}

/// Serializes the response to one session query.
pub fn encode_session_response(request_id: u64, ct: &BfvCiphertext) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::SessionResponse);
    buf.put_u64(request_id);
    write_bfv(&mut buf, ct);
    buf.freeze()
}

/// Deserializes a session response into `(request_id, ciphertext)`.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_session_response(
    he: &HeParams,
    bytes: &Bytes,
) -> Result<(u64, BfvCiphertext), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::SessionResponse)?;
    if buf.remaining() < 8 {
        return Err(PirError::Wire("truncated request id".into()));
    }
    let request = buf.get_u64();
    let ct = read_bfv(he, &mut buf)?;
    check_drained(&buf)?;
    Ok((request, ct))
}

/// Serializes a per-request failure report.
pub fn encode_error_frame(request_id: u64, message: &str) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::Error);
    buf.put_u64(request_id);
    let msg = message.as_bytes();
    buf.put_u32(msg.len() as u32);
    buf.put_slice(msg);
    buf.freeze()
}

/// Deserializes a failure report into `(request_id, message)`.
///
/// # Errors
/// Fails on framing errors or a non-UTF-8 message.
pub fn decode_error_frame(bytes: &Bytes) -> Result<(u64, String), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::Error)?;
    if buf.remaining() < 12 {
        return Err(PirError::Wire("truncated error frame".into()));
    }
    let request = buf.get_u64();
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(PirError::Wire("truncated error message".into()));
    }
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    check_drained(&buf)?;
    let message =
        String::from_utf8(raw).map_err(|_| PirError::Wire("error message not UTF-8".into()))?;
    Ok((request, message))
}

/// Delta kind bytes inside an [`Tag::UpdateRow`] frame.
const UPDATE_KIND_DELETE: u8 = 0;
const UPDATE_KIND_PUT: u8 = 1;

/// Serializes a batch of row deltas under a client-chosen request id.
/// Deltas travel as raw record bytes — the server runs the §II-B
/// preprocessing on its side, off the query hot path.
///
/// # Errors
/// Fails when the batch exceeds the `u16` per-frame delta count; chunk
/// larger ingests across frames (each frame is one epoch anyway).
pub fn encode_update_rows(request_id: u64, updates: &[RecordUpdate]) -> Result<Bytes, PirError> {
    if updates.len() > usize::from(u16::MAX) {
        return Err(PirError::InvalidParams(format!(
            "update batch of {} deltas exceeds the {} per-frame cap",
            updates.len(),
            u16::MAX
        )));
    }
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::UpdateRow);
    buf.put_u64(request_id);
    buf.put_u16(updates.len() as u16);
    for u in updates {
        buf.put_u64(u.index() as u64);
        match u {
            RecordUpdate::Delete { .. } => buf.put_u8(UPDATE_KIND_DELETE),
            RecordUpdate::Put { bytes, .. } => {
                buf.put_u8(UPDATE_KIND_PUT);
                buf.put_u32(bytes.len() as u32);
                buf.put_slice(bytes);
            }
        }
    }
    Ok(buf.freeze())
}

/// Deserializes a row-delta batch into `(request_id, updates)`,
/// validating every index against the geometry and every payload against
/// the record capacity — a malformed frame is rejected here, before it
/// can reach the staging log.
///
/// # Errors
/// Fails on framing errors, out-of-range indices, oversized payloads, or
/// an unknown delta kind.
pub fn decode_update_rows(
    params: &crate::PirParams,
    bytes: &Bytes,
) -> Result<(u64, Vec<RecordUpdate>), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::UpdateRow)?;
    if buf.remaining() < 10 {
        return Err(PirError::Wire("truncated update header".into()));
    }
    let request_id = buf.get_u64();
    let count = buf.get_u16() as usize;
    let mut updates = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 9 {
            return Err(PirError::Wire("truncated update entry".into()));
        }
        let index = buf.get_u64() as usize;
        if index >= params.num_records() {
            return Err(PirError::Wire(format!(
                "update index {index} out of range (database holds {})",
                params.num_records()
            )));
        }
        match buf.get_u8() {
            UPDATE_KIND_DELETE => updates.push(RecordUpdate::Delete { index }),
            UPDATE_KIND_PUT => {
                if buf.remaining() < 4 {
                    return Err(PirError::Wire("truncated update payload length".into()));
                }
                let len = buf.get_u32() as usize;
                if len > params.record_bytes() {
                    return Err(PirError::Wire(format!(
                        "update payload of {len} bytes exceeds the {}-byte record capacity",
                        params.record_bytes()
                    )));
                }
                if buf.remaining() < len {
                    return Err(PirError::Wire("truncated update payload".into()));
                }
                let mut payload = vec![0u8; len];
                buf.copy_to_slice(&mut payload);
                updates.push(RecordUpdate::Put { index, bytes: payload });
            }
            other => return Err(PirError::Wire(format!("unknown update kind {other}"))),
        }
    }
    check_drained(&buf)?;
    Ok((request_id, updates))
}

/// Serializes the acknowledgement of one committed update batch.
pub fn encode_update_ack(request_id: u64, epoch: u64, applied: u32) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::UpdateAck);
    buf.put_u64(request_id);
    buf.put_u64(epoch);
    buf.put_u32(applied);
    buf.freeze()
}

/// Deserializes an update acknowledgement into
/// `(request_id, epoch, applied)`.
///
/// # Errors
/// Fails on framing errors.
pub fn decode_update_ack(bytes: &Bytes) -> Result<(u64, u64, u32), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::UpdateAck)?;
    if buf.remaining() < 20 {
        return Err(PirError::Wire("truncated update ack".into()));
    }
    let request_id = buf.get_u64();
    let epoch = buf.get_u64();
    let applied = buf.get_u32();
    check_drained(&buf)?;
    Ok((request_id, epoch, applied))
}

/// Serializes one `evk_r` (exponent + rows).
pub fn encode_subs_key(key: &SubsKey) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32(key.r() as u32);
    buf.put_u16(key.rows().len() as u16);
    for (a, b) in key.rows() {
        write_poly(&mut buf, a);
        write_poly(&mut buf, b);
    }
    buf.freeze()
}

/// Serializes the keyword-session handshake: the one-time upload of the
/// client's trace key-switching keys (one per halving round, log N total).
pub fn encode_ks_hello(keys: &KsPirKeys) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::KsHello);
    buf.put_u16(keys.trace_keys().len() as u16);
    for key in keys.trace_keys() {
        write_subs_key_entry(&mut buf, key);
    }
    buf.freeze()
}

/// Deserializes a keyword-session handshake into the uploaded key set.
///
/// The homomorphic trace needs exactly `log N` automorphism keys, so any
/// other count is rejected before the keys reach the session cache.
///
/// # Errors
/// Fails on framing or shape errors, or a key count other than `log N`.
pub fn decode_ks_hello(he: &HeParams, bytes: &Bytes) -> Result<KsPirKeys, PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::KsHello)?;
    if buf.remaining() < 2 {
        return Err(PirError::Wire("truncated key count".into()));
    }
    let count = buf.get_u16() as usize;
    let need = ive_math::log2_exact(he.n())? as usize;
    if count != need {
        return Err(PirError::Wire(format!(
            "keyword hello carries {count} trace keys, the trace needs exactly {need}"
        )));
    }
    let mut trace = Vec::with_capacity(count);
    for _ in 0..count {
        trace.push(read_subs_key_entry(he, &mut buf)?);
    }
    check_drained(&buf)?;
    Ok(KsPirKeys::from_parts(trace))
}

/// Serializes the keyword handshake reply: the session id plus the
/// server's table layout (hash seed, bucket count, slots per group) —
/// everything a client needs to map `key -> slot indices` locally.
pub fn encode_ks_welcome(session_id: u64, schema: &KvSchema) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::KsWelcome);
    buf.put_u64(session_id);
    buf.put_u64(schema.seed());
    buf.put_u64(schema.buckets() as u64);
    buf.put_u16(schema.group_slots() as u16);
    buf.freeze()
}

/// Deserializes a keyword handshake reply into `(session_id, schema)`.
///
/// The schema is rebuilt locally from the advertised seed; the advertised
/// bucket count and group width must match what the client's own
/// parameters derive, otherwise the two sides disagree on geometry and
/// every retrieval would silently decode garbage.
///
/// # Errors
/// Fails on framing errors or a layout that contradicts `params`.
pub fn decode_ks_welcome(params: &KsPirParams, bytes: &Bytes) -> Result<(u64, KvSchema), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::KsWelcome)?;
    if buf.remaining() < 26 {
        return Err(PirError::Wire("truncated keyword welcome".into()));
    }
    let session = buf.get_u64();
    let seed = buf.get_u64();
    let buckets = buf.get_u64() as usize;
    let group = buf.get_u16() as usize;
    check_drained(&buf)?;
    let schema = KvSchema::new(params.clone(), seed)?;
    if buckets != schema.buckets() || group != schema.group_slots() {
        return Err(PirError::Wire(format!(
            "advertised layout {buckets}x{group} does not match the {}x{} \
             derived from the client parameters",
            schema.buckets(),
            schema.group_slots()
        )));
    }
    Ok((session, schema))
}

/// Serializes one keyword retrieval query: session id, client-chosen
/// request id, and the per-slot query material (packed coefficient
/// selector + RGSW chunk bits).
pub fn encode_ks_query(session_id: u64, request_id: u64, query: &KsPirQuery) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::KsQuery);
    buf.put_u64(session_id);
    buf.put_u64(request_id);
    buf.put_u16(query.chunk_bits().len() as u16);
    write_bfv(&mut buf, query.ct());
    for bit in query.chunk_bits() {
        write_rgsw(&mut buf, bit);
    }
    buf.freeze()
}

/// Deserializes a keyword query into `(session_id, request_id, query)`,
/// rejecting any chunk-bit count other than the tournament depth.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_ks_query(
    params: &KsPirParams,
    bytes: &Bytes,
) -> Result<(u64, u64, KsPirQuery), PirError> {
    let he = params.he();
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::KsQuery)?;
    if buf.remaining() < 18 {
        return Err(PirError::Wire("truncated keyword query header".into()));
    }
    let session = buf.get_u64();
    let request = buf.get_u64();
    let bits = buf.get_u16() as usize;
    if bits != params.log_chunks() as usize {
        return Err(PirError::Wire(format!(
            "keyword query carries {bits} chunk bits, the tournament needs {}",
            params.log_chunks()
        )));
    }
    let ct = read_bfv(he, &mut buf)?;
    let mut chunk_bits = Vec::with_capacity(bits);
    for _ in 0..bits {
        chunk_bits.push(read_rgsw(he, &mut buf)?);
    }
    check_drained(&buf)?;
    Ok((session, request, KsPirQuery::from_parts(ct, chunk_bits)))
}

/// Serializes the response to one keyword query.
pub fn encode_ks_response(request_id: u64, ct: &BfvCiphertext) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::KsResponse);
    buf.put_u64(request_id);
    write_bfv(&mut buf, ct);
    buf.freeze()
}

/// Deserializes a keyword response into `(request_id, ciphertext)`.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_ks_response(he: &HeParams, bytes: &Bytes) -> Result<(u64, BfvCiphertext), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::KsResponse)?;
    if buf.remaining() < 8 {
        return Err(PirError::Wire("truncated request id".into()));
    }
    let request = buf.get_u64();
    let ct = read_bfv(he, &mut buf)?;
    check_drained(&buf)?;
    Ok((request, ct))
}

/// Serializes a modulus-switched response: only the `primes` retained
/// residues travel, cutting downlink traffic by `k / primes` versus a
/// full [`Tag::SessionResponse`] (Table VIII's response compression).
pub fn encode_compressed_response(request_id: u64, ct: &SwitchedCiphertext) -> Bytes {
    let n = ct.a.len() / ct.primes;
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::CompressedResponse);
    buf.put_u64(request_id);
    buf.put_u16(ct.primes as u16);
    buf.put_u32(n as u32);
    for &w in ct.a.iter().chain(ct.b.iter()) {
        debug_assert!(w < u32::MAX as u64, "residue exceeds 4-byte packing");
        buf.put_u32(w as u32);
    }
    buf.freeze()
}

/// Deserializes a modulus-switched response into
/// `(request_id, ciphertext)`, validating the retained prime count
/// against the basis and every residue against its modulus.
///
/// # Errors
/// Fails on framing errors, a prime count outside `[1, k]`, a ring-size
/// mismatch, or an out-of-range residue.
pub fn decode_compressed_response(
    he: &HeParams,
    bytes: &Bytes,
) -> Result<(u64, SwitchedCiphertext), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::CompressedResponse)?;
    if buf.remaining() < 14 {
        return Err(PirError::Wire("truncated compressed response header".into()));
    }
    let request = buf.get_u64();
    let primes = buf.get_u16() as usize;
    let n = buf.get_u32() as usize;
    let k = he.ring().basis().len();
    if primes == 0 || primes > k {
        return Err(PirError::Wire(format!(
            "compressed response retains {primes} primes, the basis holds {k}"
        )));
    }
    if n != he.n() {
        return Err(PirError::Wire(format!("ring size {n} does not match N = {}", he.n())));
    }
    let words = primes * n;
    if buf.remaining() < 4 * 2 * words {
        return Err(PirError::Wire("truncated compressed residues".into()));
    }
    let moduli = he.ring().basis().moduli();
    let read_half = |buf: &mut Bytes| -> Result<Vec<u64>, PirError> {
        let mut out = Vec::with_capacity(words);
        for i in 0..words {
            let v = buf.get_u32() as u64;
            let q = moduli[i / n].value();
            if v >= q {
                return Err(PirError::Wire(format!("residue {v} >= modulus {q}")));
            }
            out.push(v);
        }
        Ok(out)
    };
    let a = read_half(&mut buf)?;
    let b = read_half(&mut buf)?;
    check_drained(&buf)?;
    Ok((request, SwitchedCiphertext { primes, a, b }))
}

/// Largest key a [`Tag::KvUpdate`] frame accepts, in bytes.
pub const MAX_KV_KEY_BYTES: usize = 4096;

/// Delta kind bytes inside a [`Tag::KvUpdate`] frame.
const KV_KIND_DELETE: u8 = 0;
const KV_KIND_PUT: u8 = 1;

/// Serializes one keyword-store mutation (`value: Some` puts, `None`
/// deletes) under a client-chosen request id.
///
/// # Errors
/// Fails on an empty key or one longer than [`MAX_KV_KEY_BYTES`].
pub fn encode_kv_update(
    request_id: u64,
    key: &[u8],
    value: Option<u64>,
) -> Result<Bytes, PirError> {
    if key.is_empty() {
        return Err(PirError::InvalidParams("empty keyword-store key".into()));
    }
    if key.len() > MAX_KV_KEY_BYTES {
        return Err(PirError::InvalidParams(format!(
            "key of {} bytes exceeds the {MAX_KV_KEY_BYTES}-byte cap",
            key.len()
        )));
    }
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::KvUpdate);
    buf.put_u64(request_id);
    match value {
        None => buf.put_u8(KV_KIND_DELETE),
        Some(v) => {
            buf.put_u8(KV_KIND_PUT);
            buf.put_u64(v);
        }
    }
    buf.put_u16(key.len() as u16);
    buf.put_slice(key);
    Ok(buf.freeze())
}

/// Deserializes a keyword-store mutation into
/// `(request_id, key, value)` — `value` is `None` for a delete.
///
/// # Errors
/// Fails on framing errors, an unknown kind, or an empty/oversized key.
pub fn decode_kv_update(bytes: &Bytes) -> Result<(u64, Vec<u8>, Option<u64>), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::KvUpdate)?;
    if buf.remaining() < 9 {
        return Err(PirError::Wire("truncated kv update header".into()));
    }
    let request = buf.get_u64();
    let value = match buf.get_u8() {
        KV_KIND_DELETE => None,
        KV_KIND_PUT => {
            if buf.remaining() < 8 {
                return Err(PirError::Wire("truncated kv update value".into()));
            }
            Some(buf.get_u64())
        }
        other => return Err(PirError::Wire(format!("unknown kv update kind {other}"))),
    };
    if buf.remaining() < 2 {
        return Err(PirError::Wire("truncated kv key length".into()));
    }
    let len = buf.get_u16() as usize;
    if len == 0 {
        return Err(PirError::Wire("empty keyword-store key".into()));
    }
    if len > MAX_KV_KEY_BYTES {
        return Err(PirError::Wire(format!(
            "key of {len} bytes exceeds the {MAX_KV_KEY_BYTES}-byte cap"
        )));
    }
    if buf.remaining() < len {
        return Err(PirError::Wire("truncated kv key".into()));
    }
    let mut key = vec![0u8; len];
    buf.copy_to_slice(&mut key);
    check_drained(&buf)?;
    Ok((request, key, value))
}

/// Largest log₂ histogram a [`Tag::StatsResponse`] frame accepts — wide
/// enough for any duration histogram (2^64 µs ≫ the age of the
/// universe), tight enough to bound a hostile frame.
pub const MAX_STATS_BUCKETS: usize = 64;

/// Largest per-stage histogram count in a [`Tag::StatsResponse`] frame:
/// room for the current stage taxonomy to grow without a wire bump.
pub const MAX_STATS_STAGES: usize = 16;

/// One pipeline stage's histogram inside a [`StatsReport`]. Stages are
/// positional: entry `i` is stage `i` of the serving layer's fixed
/// taxonomy (`ive_serve::trace::Stage`), so the wire stays free of
/// string labels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, µs.
    pub sum_us: u64,
    /// Largest sample, µs.
    pub max_us: u64,
    /// Log₂ bucket counts: bucket `i` holds samples in
    /// `[2^i, 2^(i+1))` µs.
    pub buckets: Vec<u64>,
}

/// The raw server statistics a [`Tag::StatsResponse`] frame carries:
/// every field is an integer counter or histogram, so the encoding is
/// canonical and the receiver derives rates/quantiles itself (exactly
/// the arithmetic `ive_serve::ServerStats` applies in-process).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Queries answered successfully.
    pub queries: u64,
    /// Queries that failed server-side.
    pub errors: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Sum of dispatched batch sizes (mean batch = this / batches).
    pub batch_query_sum: u64,
    /// Batches that coalesced more than one query.
    pub batches_multi: u64,
    /// Largest dispatched batch.
    pub max_batch: u64,
    /// Queries currently waiting for a window.
    pub queue_depth: u64,
    /// High-water mark of the waiting queue.
    pub queue_depth_max: u64,
    /// Update batches committed (each is one epoch boundary).
    pub update_batches: u64,
    /// Total row deltas committed.
    pub updates_applied: u64,
    /// The database epoch answers currently reflect.
    pub epoch: u64,
    /// Microseconds since the server's metrics were created.
    pub uptime_us: u64,
    /// Sum of end-to-end query latencies, µs.
    pub latency_sum_us: u64,
    /// Worst observed end-to-end latency, µs.
    pub latency_max_us: u64,
    /// End-to-end latency log₂ histogram (bucket `i` = `[2^i, 2^(i+1))`
    /// µs).
    pub latency_buckets: Vec<u64>,
    /// Per-stage histograms, positional by stage discriminant.
    pub stages: Vec<StageReport>,
    /// Residue-polynomial (i)NTT executions (kernel op counter).
    pub residue_ntts: u64,
    /// Modular multiply-accumulates (kernel op counter — the paper's
    /// mult/s axis).
    pub pointwise_macs: u64,
    /// Coefficients reconstructed through iCRT (kernel op counter).
    pub icrt_coeffs: u64,
    /// Coefficients moved through automorphisms (kernel op counter).
    pub auto_coeffs: u64,
    /// Database bytes streamed by `RowSel` scans.
    pub scan_bytes: u64,
    /// Wall nanoseconds those scans took (bytes/ns = effective GB/s).
    pub scan_ns: u64,
    /// Queries that crossed the slow-trace threshold.
    pub slow_queries: u64,
    /// Queries shed at admission with a typed `Busy` rejection.
    pub busy_rejections: u64,
    /// Session-cache LRU evictions performed to admit new sessions.
    pub session_evictions: u64,
    /// Connections closed after their idle deadline expired.
    pub timeouts: u64,
    /// Duplicate update requests answered from the idempotency cache
    /// instead of re-applied (a client retried an already-acked batch).
    pub retries: u64,
    /// Hello handshakes that re-registered over a connection that
    /// already held a session (evicted clients recovering).
    pub reconnects: u64,
    /// Worker panics caught and converted into typed error frames.
    pub worker_panics: u64,
    /// Queries answered while the service was draining for shutdown.
    pub drained_jobs: u64,
}

/// Serializes a stats scrape request under a client-chosen request id.
pub fn encode_get_stats(request_id: u64) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::GetStats);
    buf.put_u64(request_id);
    buf.freeze()
}

/// Deserializes a stats scrape request into its request id.
///
/// # Errors
/// Fails on framing errors.
pub fn decode_get_stats(bytes: &Bytes) -> Result<u64, PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::GetStats)?;
    if buf.remaining() < 8 {
        return Err(PirError::Wire("truncated request id".into()));
    }
    let request = buf.get_u64();
    check_drained(&buf)?;
    Ok(request)
}

/// Writes one `u64` histogram with a `u16` length prefix.
fn write_buckets(buf: &mut BytesMut, buckets: &[u64]) {
    buf.put_u16(buckets.len() as u16);
    for &b in buckets {
        buf.put_u64(b);
    }
}

/// Reads one length-prefixed `u64` histogram of at most `max` buckets.
fn read_buckets(buf: &mut impl Buf, max: usize, what: &str) -> Result<Vec<u64>, PirError> {
    if buf.remaining() < 2 {
        return Err(PirError::Wire(format!("truncated {what} length")));
    }
    let len = buf.get_u16() as usize;
    if len > max {
        return Err(PirError::Wire(format!("{what} of {len} buckets exceeds the {max} cap")));
    }
    if buf.remaining() < 8 * len {
        return Err(PirError::Wire(format!("truncated {what}")));
    }
    Ok((0..len).map(|_| buf.get_u64()).collect())
}

/// Serializes a stats reply: the request id it answers, then the report.
///
/// # Errors
/// Fails when a histogram exceeds [`MAX_STATS_BUCKETS`] buckets or the
/// report carries more than [`MAX_STATS_STAGES`] stages.
pub fn encode_stats_response(request_id: u64, report: &StatsReport) -> Result<Bytes, PirError> {
    if report.latency_buckets.len() > MAX_STATS_BUCKETS {
        return Err(PirError::InvalidParams(format!(
            "latency histogram of {} buckets exceeds the {MAX_STATS_BUCKETS} cap",
            report.latency_buckets.len()
        )));
    }
    if report.stages.len() > MAX_STATS_STAGES {
        return Err(PirError::InvalidParams(format!(
            "{} stages exceed the {MAX_STATS_STAGES} cap",
            report.stages.len()
        )));
    }
    for stage in &report.stages {
        if stage.buckets.len() > MAX_STATS_BUCKETS {
            return Err(PirError::InvalidParams(format!(
                "stage histogram of {} buckets exceeds the {MAX_STATS_BUCKETS} cap",
                stage.buckets.len()
            )));
        }
    }
    let mut buf = BytesMut::new();
    put_header(&mut buf, Tag::StatsResponse);
    buf.put_u64(request_id);
    for v in [
        report.queries,
        report.errors,
        report.batches,
        report.batch_query_sum,
        report.batches_multi,
        report.max_batch,
        report.queue_depth,
        report.queue_depth_max,
        report.update_batches,
        report.updates_applied,
        report.epoch,
        report.uptime_us,
        report.latency_sum_us,
        report.latency_max_us,
    ] {
        buf.put_u64(v);
    }
    write_buckets(&mut buf, &report.latency_buckets);
    buf.put_u16(report.stages.len() as u16);
    for stage in &report.stages {
        buf.put_u64(stage.count);
        buf.put_u64(stage.sum_us);
        buf.put_u64(stage.max_us);
        write_buckets(&mut buf, &stage.buckets);
    }
    for v in [
        report.residue_ntts,
        report.pointwise_macs,
        report.icrt_coeffs,
        report.auto_coeffs,
        report.scan_bytes,
        report.scan_ns,
        report.slow_queries,
        report.busy_rejections,
        report.session_evictions,
        report.timeouts,
        report.retries,
        report.reconnects,
        report.worker_panics,
        report.drained_jobs,
    ] {
        buf.put_u64(v);
    }
    Ok(buf.freeze())
}

/// Deserializes a stats reply into `(request_id, report)`.
///
/// # Errors
/// Fails on framing errors or oversized histograms/stage counts.
pub fn decode_stats_response(bytes: &Bytes) -> Result<(u64, StatsReport), PirError> {
    let mut buf = bytes.clone();
    check_header(&mut buf, Tag::StatsResponse)?;
    // Request id + the 14 fixed leading counters.
    if buf.remaining() < 8 * 15 {
        return Err(PirError::Wire("truncated stats counters".into()));
    }
    let request = buf.get_u64();
    let mut fixed = [0u64; 14];
    for v in &mut fixed {
        *v = buf.get_u64();
    }
    let latency_buckets = read_buckets(&mut buf, MAX_STATS_BUCKETS, "latency histogram")?;
    if buf.remaining() < 2 {
        return Err(PirError::Wire("truncated stage count".into()));
    }
    let stage_count = buf.get_u16() as usize;
    if stage_count > MAX_STATS_STAGES {
        return Err(PirError::Wire(format!(
            "{stage_count} stages exceed the {MAX_STATS_STAGES} cap"
        )));
    }
    let mut stages = Vec::with_capacity(stage_count);
    for _ in 0..stage_count {
        if buf.remaining() < 8 * 3 {
            return Err(PirError::Wire("truncated stage counters".into()));
        }
        let count = buf.get_u64();
        let sum_us = buf.get_u64();
        let max_us = buf.get_u64();
        let buckets = read_buckets(&mut buf, MAX_STATS_BUCKETS, "stage histogram")?;
        stages.push(StageReport { count, sum_us, max_us, buckets });
    }
    if buf.remaining() < 8 * 14 {
        return Err(PirError::Wire("truncated kernel counters".into()));
    }
    let mut trailing = [0u64; 14];
    for v in &mut trailing {
        *v = buf.get_u64();
    }
    check_drained(&buf)?;
    Ok((
        request,
        StatsReport {
            queries: fixed[0],
            errors: fixed[1],
            batches: fixed[2],
            batch_query_sum: fixed[3],
            batches_multi: fixed[4],
            max_batch: fixed[5],
            queue_depth: fixed[6],
            queue_depth_max: fixed[7],
            update_batches: fixed[8],
            updates_applied: fixed[9],
            epoch: fixed[10],
            uptime_us: fixed[11],
            latency_sum_us: fixed[12],
            latency_max_us: fixed[13],
            latency_buckets,
            stages,
            residue_ntts: trailing[0],
            pointwise_macs: trailing[1],
            icrt_coeffs: trailing[2],
            auto_coeffs: trailing[3],
            scan_bytes: trailing[4],
            scan_ns: trailing[5],
            slow_queries: trailing[6],
            busy_rejections: trailing[7],
            session_evictions: trailing[8],
            timeouts: trailing[9],
            retries: trailing[10],
            reconnects: trailing[11],
            worker_panics: trailing[12],
            drained_jobs: trailing[13],
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::db::Database;
    use crate::params::PirParams;
    use crate::server::PirServer;
    use rand::SeedableRng;

    #[test]
    fn reply_frames_expose_their_request_id() {
        let params = PirParams::toy();
        let he = params.he();
        let ct = BfvCiphertext::zero(he);
        assert_eq!(peek_request_id(&encode_session_response(7, &ct)).unwrap(), Some(7));
        assert_eq!(peek_request_id(&encode_ks_response(8, &ct)).unwrap(), Some(8));
        assert_eq!(peek_request_id(&encode_update_ack(9, 3, 1)).unwrap(), Some(9));
        assert_eq!(peek_request_id(&encode_error_frame(0, "x")).unwrap(), Some(0));
        assert_eq!(peek_request_id(&encode_welcome(5)).unwrap(), None, "no id in a Welcome");
        assert_eq!(peek_request_id(&encode_get_stats(4)).unwrap(), None, "requests carry none");
        let truncated = encode_update_ack(9, 3, 1).slice(..10);
        assert!(peek_request_id(&truncated).is_err());
    }

    #[test]
    fn query_roundtrip_preserves_answers() {
        let params = PirParams::toy();
        let he = params.he();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("wire {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).expect("fits");
        let server = PirServer::new(&params, db).expect("geometry matches");
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(42)).expect("keygen");
        let query = client.query(11).expect("in range");
        // Over the wire and back.
        let encoded = encode_query(&query);
        let decoded = decode_query(he, &encoded).expect("well-formed");
        let r1 = server.answer(client.public_keys(), &query).expect("pipeline");
        let r2 = server.answer(client.public_keys(), &decoded).expect("pipeline");
        assert_eq!(r1, r2, "wire roundtrip changed the query");
        // Response over the wire.
        let resp_bytes = encode_response(&r1);
        let resp = decode_response(he, &resp_bytes).expect("well-formed");
        let plain = client.decode(&query, &resp).expect("decrypts");
        assert_eq!(&plain[..7], &records[11][..7]);
    }

    #[test]
    fn measured_sizes_match_model() {
        // The §VI-C communication model must agree with real encodings
        // to within the small framing overhead.
        let params = PirParams::toy();
        let he = params.he();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(1)).expect("keygen");
        let query = client.query(0).expect("in range");
        let encoded = encode_query(&query);
        // Model counts packed residues (28-bit -> 3.5B); the wire uses
        // 4B words plus headers: ratio must stay below 1.25.
        let model = query.byte_len(he) as f64;
        let actual = encoded.len() as f64;
        let ratio = actual / model;
        assert!((1.0..1.25).contains(&ratio), "wire/model ratio {ratio:.3}");
    }

    #[test]
    fn corrupted_frames_rejected() {
        let params = PirParams::toy();
        let he = params.he();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(2)).expect("keygen");
        let query = client.query(1).expect("in range");
        let good = encode_query(&query);
        // Truncation.
        let short = good.slice(..good.len() / 2);
        assert!(decode_query(he, &short).is_err());
        // Bad magic.
        let mut bad = BytesMut::from(&good[..]);
        bad[0] ^= 0xFF;
        assert!(decode_query(he, &bad.freeze()).is_err());
        // Out-of-range residue.
        let mut tampered = BytesMut::from(&good[..]);
        let idx = tampered.len() - 2;
        tampered[idx] = 0xFF;
        tampered[idx - 1] = 0xFF;
        tampered[idx - 2] = 0xFF;
        tampered[idx - 3] = 0xFF;
        assert!(decode_query(he, &tampered.freeze()).is_err());
    }

    #[test]
    fn wrong_version_and_tag_named_in_errors() {
        let params = PirParams::toy();
        let he = params.he();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(5)).expect("keygen");
        let query = client.query(1).expect("in range");
        let good = encode_query(&query);
        // Version-1 framing (no version byte) must be rejected by name.
        let mut v1 = BytesMut::from(&good[..]);
        v1[4] = 1;
        let err = decode_query(he, &v1.freeze()).expect_err("old version").to_string();
        assert!(err.contains("version 1"), "unhelpful error: {err}");
        // Feeding a Query frame to the response decoder names both tags.
        let err = decode_response(he, &good).expect_err("wrong tag").to_string();
        assert!(err.contains("Response") && err.contains("Query"), "unhelpful error: {err}");
        assert_eq!(peek_tag(&good).expect("well-formed"), Tag::Query);
    }

    #[test]
    fn wrong_ring_rejected() {
        let params = PirParams::toy();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(3)).expect("keygen");
        let query = client.query(1).expect("in range");
        let encoded = encode_query(&query);
        // Decode against a different ring.
        let other = ive_he::HeParams::new(
            ive_math::rns::RingContext::test_ring(128, 2),
            16,
            ive_math::gadget::Gadget::new(14, 4),
            4,
        )
        .expect("valid");
        assert!(decode_query(&other, &encoded).is_err());
    }

    #[test]
    fn client_keys_roundtrip_still_expand() {
        // The cached-key path: keys that crossed the wire must drive the
        // full pipeline to the same answer as the originals.
        let params = PirParams::toy();
        let he = params.he();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("key {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).expect("fits");
        let server = PirServer::new(&params, db).expect("geometry matches");
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(6)).expect("keygen");
        let encoded = encode_client_keys(client.public_keys());
        let decoded = decode_client_keys(he, &encoded).expect("well-formed");
        let query = client.query(23).expect("in range");
        let r1 = server.answer(client.public_keys(), &query).expect("pipeline");
        let r2 = server.answer(&decoded, &query).expect("pipeline");
        assert_eq!(r1, r2, "wire roundtrip changed the keys");
        // The Hello frame carries the same body under its own tag.
        let hello = encode_hello(client.public_keys());
        assert_eq!(peek_tag(&hello).expect("well-formed"), Tag::Hello);
        let from_hello = decode_hello(he, &hello).expect("well-formed");
        assert_eq!(from_hello.subs_keys().len(), decoded.subs_keys().len());
    }

    #[test]
    fn session_frames_roundtrip() {
        let params = PirParams::toy();
        let he = params.he();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(7)).expect("keygen");
        let query = client.query(9).expect("in range");
        let sq = encode_session_query(0xDEAD_BEEF, 17, &query);
        let (session, request, decoded) = decode_session_query(he, &sq).expect("well-formed");
        assert_eq!((session, request), (0xDEAD_BEEF, 17));
        assert_eq!(encode_query(&decoded), encode_query(&query));

        let welcome = encode_welcome(99);
        assert_eq!(decode_welcome(&welcome).expect("well-formed"), 99);

        let err = encode_error_frame(17, "unknown session 99");
        let (req, msg) = decode_error_frame(&err).expect("well-formed");
        assert_eq!(req, 17);
        assert_eq!(msg, "unknown session 99");
    }

    #[test]
    fn update_frames_roundtrip_and_validate() {
        let params = PirParams::toy();
        let updates = vec![
            RecordUpdate::put(3, b"new record".to_vec()),
            RecordUpdate::delete(9),
            RecordUpdate::put(63, vec![]),
        ];
        let frame = encode_update_rows(77, &updates).expect("within cap");
        assert_eq!(peek_tag(&frame).expect("well-formed"), Tag::UpdateRow);
        let (req, back) = decode_update_rows(&params, &frame).expect("own encoding decodes");
        assert_eq!(req, 77);
        assert_eq!(back, updates);
        // Out-of-range index rejected at decode, before any staging.
        let oob = encode_update_rows(1, &[RecordUpdate::delete(params.num_records())])
            .expect("within cap");
        let err = decode_update_rows(&params, &oob).expect_err("oob index").to_string();
        assert!(err.contains("out of range"), "unhelpful: {err}");
        // Oversized payload rejected by the declared capacity.
        let fat =
            encode_update_rows(1, &[RecordUpdate::put(0, vec![0; params.record_bytes() + 1])])
                .expect("within cap");
        let err = decode_update_rows(&params, &fat).expect_err("fat payload").to_string();
        assert!(err.contains("capacity"), "unhelpful: {err}");

        let ack = encode_update_ack(77, 4, 3);
        assert_eq!(peek_tag(&ack).expect("well-formed"), Tag::UpdateAck);
        assert_eq!(decode_update_ack(&ack).expect("well-formed"), (77, 4, 3));
    }

    #[test]
    fn subs_key_encoding_nonempty() {
        let params = PirParams::toy();
        let he = params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sk = ive_he::SecretKey::generate(he, &mut rng);
        let key = ive_he::SubsKey::generate(he, &sk, 3, &mut rng);
        let bytes = encode_subs_key(&key);
        assert!(bytes.len() > 4 * he.gadget().ell() * he.n());
    }

    #[test]
    fn ks_frames_roundtrip_preserve_answers() {
        use crate::kspir::{KsPirClient, KsPirServer};
        let params = KsPirParams::toy();
        let he = params.he();
        let scalars: Vec<u64> =
            (0..params.num_scalars() as u64).map(|i| (i * 31 + 5) % he.p()).collect();
        let server = KsPirServer::new(params.clone(), &scalars).expect("packs");
        let mut client =
            KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(11)).expect("keygen");

        // Hello: trace keys that crossed the wire drive the same answer.
        let hello = encode_ks_hello(client.public_keys());
        assert_eq!(peek_tag(&hello).expect("well-formed"), Tag::KsHello);
        let keys = decode_ks_hello(he, &hello).expect("well-formed");
        let query = client.query(137).expect("in range");
        let r1 = server.answer(client.public_keys(), &query).expect("trace");
        let r2 = server.answer(&keys, &query).expect("trace");
        assert_eq!(r1, r2, "wire roundtrip changed the keys");
        // A key count other than log N is rejected before caching.
        let short = KsPirKeys::from_parts(keys.trace_keys()[..3].to_vec());
        let err = decode_ks_hello(he, &encode_ks_hello(&short)).expect_err("short").to_string();
        assert!(err.contains("trace keys"), "unhelpful: {err}");

        // Welcome: the schema survives by seed, geometry is revalidated.
        let schema = KvSchema::new(params.clone(), 0xFEED).expect("valid");
        let welcome = encode_ks_welcome(42, &schema);
        assert_eq!(peek_tag(&welcome).expect("well-formed"), Tag::KsWelcome);
        let (session, back) = decode_ks_welcome(&params, &welcome).expect("well-formed");
        assert_eq!(session, 42);
        assert_eq!((back.seed(), back.buckets()), (0xFEED, schema.buckets()));
        let mut lying = BytesMut::from(&welcome[..]);
        let off = welcome.len() - 2; // group-slot field
        lying[off..].copy_from_slice(&[0xFF, 0xFF]);
        assert!(decode_ks_welcome(&params, &lying.freeze()).is_err());

        // Query and response frames round-trip to the same plaintext.
        let kq = encode_ks_query(42, 7, &query);
        assert_eq!(peek_tag(&kq).expect("well-formed"), Tag::KsQuery);
        let (s, r, decoded) = decode_ks_query(&params, &kq).expect("well-formed");
        assert_eq!((s, r), (42, 7));
        let r3 = server.answer(&keys, &decoded).expect("trace");
        assert_eq!(r1, r3, "wire roundtrip changed the query");
        let resp = encode_ks_response(7, &r1);
        assert_eq!(peek_tag(&resp).expect("well-formed"), Tag::KsResponse);
        let (req, ct) = decode_ks_response(he, &resp).expect("well-formed");
        assert_eq!(req, 7);
        assert_eq!(client.decode(&ct).expect("decrypts"), scalars[137]);
    }

    #[test]
    fn compressed_response_roundtrip_and_validation() {
        let params = PirParams::toy();
        let he = params.he();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("switch {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).expect("fits");
        let server = PirServer::new(&params, db).expect("geometry matches");
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(13)).expect("keygen");
        let query = client.query(29).expect("in range");
        let full = server.answer(client.public_keys(), &query).expect("pipeline");
        let switched = ive_he::modswitch::switch_to_first_prime(he, &full).expect("switchable");

        let frame = encode_compressed_response(3, &switched);
        assert_eq!(peek_tag(&frame).expect("well-formed"), Tag::CompressedResponse);
        // The dropped primes must show up as real traffic savings.
        assert!(frame.len() < encode_response(&full).len());
        let (req, back) = decode_compressed_response(he, &frame).expect("well-formed");
        assert_eq!(req, 3);
        assert_eq!((back.primes, &back.a, &back.b), (switched.primes, &switched.a, &switched.b));
        let plain = client.decode_compressed(&query, &back).expect("decrypts");
        assert_eq!(&plain[..9], &records[29][..9]);

        // Truncation, zero primes, and out-of-range residues are rejected.
        assert!(decode_compressed_response(he, &frame.slice(..frame.len() / 2)).is_err());
        let mut zeroed = BytesMut::from(&frame[..]);
        zeroed[14..16].copy_from_slice(&[0, 0]);
        assert!(decode_compressed_response(he, &zeroed.freeze()).is_err());
        let mut hot = BytesMut::from(&frame[..]);
        hot[20..24].copy_from_slice(&[0xFF; 4]);
        assert!(decode_compressed_response(he, &hot.freeze()).is_err());
    }

    #[test]
    fn kv_update_frames_roundtrip_and_validate() {
        let put = encode_kv_update(5, b"alice", Some(99)).expect("legal");
        assert_eq!(peek_tag(&put).expect("well-formed"), Tag::KvUpdate);
        assert_eq!(decode_kv_update(&put).expect("well-formed"), (5, b"alice".to_vec(), Some(99)));
        let del = encode_kv_update(6, b"bob", None).expect("legal");
        assert_eq!(decode_kv_update(&del).expect("well-formed"), (6, b"bob".to_vec(), None));

        // Illegal keys never leave the encoder.
        assert!(encode_kv_update(0, b"", Some(1)).is_err());
        assert!(encode_kv_update(0, &vec![0u8; MAX_KV_KEY_BYTES + 1], Some(1)).is_err());
        // Truncation and a forged zero-length key are rejected at decode.
        assert!(decode_kv_update(&put.slice(..put.len() - 1)).is_err());
        let mut empty = BytesMut::from(&del[..]);
        let off = del.len() - 2 - b"bob".len();
        empty[off..off + 2].copy_from_slice(&[0, 0]);
        let err = decode_kv_update(&empty.freeze().slice(..off + 2)).expect_err("empty key");
        assert!(err.to_string().contains("empty"), "unhelpful: {err}");
    }

    #[test]
    fn stats_frames_roundtrip_and_validate() {
        let req = encode_get_stats(77);
        assert_eq!(peek_tag(&req).expect("well-formed"), Tag::GetStats);
        assert_eq!(decode_get_stats(&req).expect("well-formed"), 77);
        assert!(decode_get_stats(&req.slice(..req.len() - 1)).is_err());

        let report = StatsReport {
            queries: 1000,
            errors: 3,
            batches: 400,
            batch_query_sum: 1000,
            batches_multi: 120,
            max_batch: 8,
            queue_depth: 2,
            queue_depth_max: 17,
            update_batches: 5,
            updates_applied: 9,
            epoch: 5,
            uptime_us: 60_000_000,
            latency_sum_us: 4_200_000,
            latency_max_us: 81_000,
            latency_buckets: vec![0, 0, 0, 5, 900, 90, 5],
            stages: vec![
                StageReport { count: 1000, sum_us: 900_000, max_us: 4000, buckets: vec![0, 1000] },
                StageReport::default(),
            ],
            residue_ntts: 123_456,
            pointwise_macs: 9_876_543,
            icrt_coeffs: 42,
            auto_coeffs: 7,
            scan_bytes: 1 << 30,
            scan_ns: 1_000_000_000,
            slow_queries: 11,
            busy_rejections: 23,
            session_evictions: 31,
            timeouts: 2,
            retries: 6,
            reconnects: 4,
            worker_panics: 1,
            drained_jobs: 13,
        };
        let frame = encode_stats_response(8, &report).expect("legal");
        assert_eq!(peek_tag(&frame).expect("well-formed"), Tag::StatsResponse);
        let (rid, back) = decode_stats_response(&frame).expect("well-formed");
        assert_eq!(rid, 8);
        assert_eq!(back, report, "stats report must survive the wire bit-exactly");

        // Oversized histograms never leave the encoder and are rejected
        // at decode when forged.
        let fat = StatsReport {
            latency_buckets: vec![0; MAX_STATS_BUCKETS + 1],
            ..StatsReport::default()
        };
        assert!(encode_stats_response(0, &fat).is_err());
        let crowded = StatsReport {
            stages: vec![StageReport::default(); MAX_STATS_STAGES + 1],
            ..StatsReport::default()
        };
        assert!(encode_stats_response(0, &crowded).is_err());
        for cut in [5, 20, frame.len() / 2, frame.len() - 1] {
            assert!(decode_stats_response(&frame.slice(..cut)).is_err(), "cut at {cut}");
        }
        // A forged stage count past the cap is rejected before any
        // allocation-by-attacker-length.
        let mut forged = BytesMut::from(&frame[..]);
        let stage_count_off = 6 + 8 * 15 + 2 + 8 * report.latency_buckets.len();
        forged[stage_count_off..stage_count_off + 2].copy_from_slice(&[0xFF, 0xFF]);
        assert!(decode_stats_response(&forged.freeze()).is_err());
    }
}
