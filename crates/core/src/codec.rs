//! Typed persistent values: the role Ode's O++ object model played above
//! EOS.
//!
//! ASSET locks, permits, delegates and logs at *object* granularity over
//! raw byte payloads. [`ObjectCodec`] layers typed access on top without
//! changing any of that: a `Handle<T>` is an [`Oid`] plus a phantom type,
//! and [`TxnCtx::get`]/[`TxnCtx::put`]/[`TxnCtx::modify`] encode/decode at
//! the boundary. Payload layout is a stable little-endian format (not a
//! general serializer — the approved dependency set has none, and the
//! substrate only needs round-tripping).

use crate::context::TxnCtx;
use asset_common::codec::Reader;
use asset_common::{AssetError, Oid, Result};
use std::marker::PhantomData;

/// Encode/decode a value to/from an object payload.
pub trait ObjectCodec: Sized {
    /// Encode into bytes.
    fn encode(&self) -> Vec<u8>;
    /// Decode from bytes; errors surface as [`AssetError::Corrupt`].
    fn decode(bytes: &[u8]) -> Result<Self>;
}

macro_rules! le_codec {
    ($($t:ty),*) => {$(
        impl ObjectCodec for $t {
            fn encode(&self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }
            fn decode(bytes: &[u8]) -> Result<Self> {
                let arr: [u8; std::mem::size_of::<$t>()] = bytes.try_into().map_err(|_| {
                    AssetError::Corrupt(format!(
                        "expected {} bytes for {}, got {}",
                        std::mem::size_of::<$t>(),
                        stringify!($t),
                        bytes.len()
                    ))
                })?;
                Ok(<$t>::from_le_bytes(arr))
            }
        }
    )*};
}

le_codec!(u8, u16, u32, u64, i8, i16, i32, i64, u128, i128, f64);

impl ObjectCodec for bool {
    fn encode(&self) -> Vec<u8> {
        vec![*self as u8]
    }
    fn decode(bytes: &[u8]) -> Result<Self> {
        match bytes {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(AssetError::Corrupt(
                "bool payload must be one byte 0/1".into(),
            )),
        }
    }
}

impl ObjectCodec for String {
    fn encode(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
    fn decode(bytes: &[u8]) -> Result<Self> {
        String::from_utf8(bytes.to_vec())
            .map_err(|e| AssetError::Corrupt(format!("invalid utf-8 payload: {e}")))
    }
}

/// Raw, uninterpreted bytes (a plain `Vec<u8>` payload with no framing —
/// `Vec<u8>` itself takes the generic length-prefixed `Vec<T>` encoding).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RawBytes(pub Vec<u8>);

impl ObjectCodec for RawBytes {
    fn encode(&self) -> Vec<u8> {
        self.0.clone()
    }
    fn decode(bytes: &[u8]) -> Result<Self> {
        Ok(RawBytes(bytes.to_vec()))
    }
}

impl<T: ObjectCodec> ObjectCodec for Vec<T>
where
    T: 'static,
{
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for item in self {
            let b = item.encode();
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(&b);
        }
        out
    }
    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let corrupt = |e| AssetError::Corrupt(format!("Vec payload: {e}"));
        let n = r.u32().map_err(corrupt)? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let len = r.u32().map_err(corrupt)? as usize;
            out.push(T::decode(r.bytes(len).map_err(corrupt)?)?);
        }
        r.finish().map_err(corrupt)?;
        Ok(out)
    }
}

impl<A: ObjectCodec, B: ObjectCodec> ObjectCodec for (A, B) {
    fn encode(&self) -> Vec<u8> {
        let a = self.0.encode();
        let b = self.1.encode();
        let mut out = Vec::with_capacity(8 + a.len() + b.len());
        out.extend_from_slice(&(a.len() as u32).to_le_bytes());
        out.extend_from_slice(&a);
        out.extend_from_slice(&b);
        out
    }
    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let corrupt = |e| AssetError::Corrupt(format!("tuple payload: {e}"));
        let alen = r.u32().map_err(corrupt)? as usize;
        Ok((
            A::decode(r.bytes(alen).map_err(corrupt)?)?,
            B::decode(r.rest())?,
        ))
    }
}

/// A typed handle to a persistent object: an [`Oid`] plus the payload type.
pub struct Handle<T> {
    oid: Oid,
    _marker: PhantomData<fn() -> T>,
}

// manual impls: `derive` would bound them on `T`
impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle<{}>({})", std::any::type_name::<T>(), self.oid)
    }
}

impl<T> Handle<T> {
    /// Wrap an oid as a typed handle. The caller asserts the payload type;
    /// decoding checks it structurally at access time.
    pub fn from_oid(oid: Oid) -> Handle<T> {
        Handle {
            oid,
            _marker: PhantomData,
        }
    }

    /// The underlying object id (for `ObSet`s, permits, delegation).
    pub fn oid(&self) -> Oid {
        self.oid
    }
}

impl TxnCtx {
    /// Typed read: read-lock, fetch, decode. `None` if the object does not
    /// exist.
    pub fn get<T: ObjectCodec>(&self, h: Handle<T>) -> Result<Option<T>> {
        match self.read(h.oid())? {
            None => Ok(None),
            Some(bytes) => T::decode(&bytes).map(Some),
        }
    }

    /// Typed write: encode, write-lock, install, log.
    pub fn put<T: ObjectCodec>(&self, h: Handle<T>, value: &T) -> Result<()> {
        self.write(h.oid(), value.encode())
    }

    /// Typed create: returns a fresh handle.
    pub fn create_typed<T: ObjectCodec>(&self, value: &T) -> Result<Handle<T>> {
        Ok(Handle::from_oid(self.create(value.encode())?))
    }

    /// Typed read-modify-write under the write lock. Errors if the object
    /// does not exist.
    pub fn modify<T: ObjectCodec>(&self, h: Handle<T>, f: impl FnOnce(T) -> T) -> Result<()> {
        let oid = h.oid();
        // take the write lock first (no read→write upgrade window)
        let mut decoded: Result<T> = Err(AssetError::ObjectNotFound(oid));
        self.update(oid, |cur| match cur {
            None => {
                decoded = Err(AssetError::ObjectNotFound(oid));
                Vec::new()
            }
            Some(bytes) => match T::decode(&bytes) {
                Ok(v) => {
                    let next = f(v);
                    let enc = next.encode();
                    decoded = Ok(next);
                    enc
                }
                Err(e) => {
                    decoded = Err(e);
                    bytes
                }
            },
        })?;
        decoded.map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn roundtrip<T: ObjectCodec + PartialEq + std::fmt::Debug>(v: T) {
        let enc = v.encode();
        let dec = T::decode(&enc).unwrap();
        assert_eq!(v, dec);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(-5i32);
        roundtrip(u64::MAX);
        roundtrip(i128::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
        roundtrip(String::from("héllo wörld"));
        roundtrip(RawBytes(vec![1, 2, 3]));
        roundtrip(vec![1u8, 2, 3]);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![String::from("a"), String::from("bb")]);
        roundtrip((42u64, String::from("answer")));
        roundtrip((String::from("k"), vec![7i32, 8])); // nested
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(u64::decode(&[1, 2, 3]).is_err());
        assert!(bool::decode(&[9]).is_err());
        assert!(bool::decode(&[]).is_err());
        assert!(String::decode(&[0xFF, 0xFE]).is_err());
        assert!(<Vec<u64>>::decode(&[5, 0, 0, 0, 1]).is_err(), "truncated");
        assert!(<(u64, u64)>::decode(&[1]).is_err());
        // trailing bytes
        let mut enc = vec![0, 0, 0, 0];
        enc.push(99);
        assert!(<Vec<u64>>::decode(&enc).is_err());
    }

    #[test]
    fn typed_access_through_transactions() {
        let db = Database::in_memory();
        let handle: Handle<u64> = Handle::from_oid(db.new_oid());
        assert!(db
            .run(move |ctx| {
                assert_eq!(ctx.get(handle)?, None);
                ctx.put(handle, &41)?;
                ctx.modify(handle, |v| v + 1)?;
                assert_eq!(ctx.get(handle)?, Some(42));
                Ok(())
            })
            .unwrap());
        assert_eq!(db.peek(handle.oid()).unwrap().unwrap(), 42u64.to_le_bytes());
    }

    #[test]
    fn create_typed_allocates() {
        let db = Database::in_memory();
        let out: std::sync::Arc<asset_common::sync::Mutex<Option<Handle<String>>>> =
            std::sync::Arc::new(asset_common::sync::Mutex::new(None));
        let o2 = std::sync::Arc::clone(&out);
        assert!(db
            .run(move |ctx| {
                let h = ctx.create_typed(&String::from("persistent"))?;
                *o2.lock() = Some(h);
                Ok(())
            })
            .unwrap());
        let h = out.lock().unwrap();
        assert!(db
            .run(move |ctx| {
                assert_eq!(ctx.get(h)?.unwrap(), "persistent");
                Ok(())
            })
            .unwrap());
    }

    #[test]
    fn modify_missing_object_errors() {
        let db = Database::in_memory();
        let handle: Handle<u64> = Handle::from_oid(db.new_oid());
        let committed = db.run(move |ctx| ctx.modify(handle, |v| v + 1)).unwrap();
        assert!(!committed, "the error aborts the transaction");
    }

    #[test]
    fn typed_abort_restores() {
        let db = Database::in_memory();
        let handle: Handle<i64> = Handle::from_oid(db.new_oid());
        assert!(db.run(move |ctx| ctx.put(handle, &100)).unwrap());
        let committed = db
            .run(move |ctx| {
                ctx.modify(handle, |v| v - 60)?;
                ctx.abort_self::<()>().map(|_| ())
            })
            .unwrap();
        assert!(!committed);
        assert!(db
            .run(move |ctx| {
                assert_eq!(ctx.get(handle)?, Some(100));
                Ok(())
            })
            .unwrap());
    }
}
