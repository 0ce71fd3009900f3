//! A transactional chained hash table.
//!
//! The table consists of a fixed directory of bucket objects, allocated once
//! at creation. Keys hash to a bucket; the bucket object stores the entries
//! for all keys that map to it. Every operation reads (and possibly writes)
//! the bucket inside the caller's transaction, so lookups and updates across
//! many buckets and tables are serialized by the FaRMv2 protocol.
//!
//! With opacity there is no need for the per-bucket version fields and "fat
//! pointers" FaRMv1's hopscotch table required (Section 2): the consistent
//! snapshot already guarantees that a lookup sees a single point in time.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use farm_core::{Addr, Engine, NodeId, Transaction, TxError};

use crate::codec::{decode_entries, encode_entries};

/// A fixed-directory chained hash table.
#[derive(Debug, Clone)]
pub struct HashTable {
    buckets: Arc<Vec<Addr>>,
}

impl HashTable {
    /// Creates a table with `bucket_count` buckets, allocating the bucket
    /// objects across the cluster in a single transaction coordinated by
    /// `creator`.
    pub fn create(
        engine: &Arc<Engine>,
        creator: NodeId,
        bucket_count: usize,
    ) -> Result<HashTable, TxError> {
        assert!(bucket_count > 0);
        let node = engine.node(creator);
        let regions = engine.cluster().regions();
        let mut tx = node.begin();
        let mut buckets = Vec::with_capacity(bucket_count);
        for i in 0..bucket_count {
            // Spread buckets across regions (and therefore machines).
            let region = regions[i % regions.len()];
            let addr = tx.alloc_in(region, encode_entries(&[]))?;
            buckets.push(addr);
        }
        tx.commit()?;
        Ok(HashTable {
            buckets: Arc::new(buckets),
        })
    }

    fn bucket_of(&self, key: &[u8]) -> Addr {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let h = hasher.finish() as usize;
        self.buckets[h % self.buckets.len()]
    }

    /// Looks up `key` within `tx`.
    pub fn get(&self, tx: &mut Transaction, key: &[u8]) -> Result<Option<Vec<u8>>, TxError> {
        let bucket = self.bucket_of(key);
        let data = tx.read(bucket)?;
        Ok(decode_entries(&data)
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v))
    }

    /// Inserts or updates `key` within `tx`.
    pub fn put(&self, tx: &mut Transaction, key: &[u8], value: &[u8]) -> Result<(), TxError> {
        let bucket = self.bucket_of(key);
        let data = tx.read(bucket)?;
        let mut entries = decode_entries(&data);
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.to_vec(),
            None => entries.push((key.to_vec(), value.to_vec())),
        }
        tx.write(bucket, encode_entries(&entries))
    }

    /// Removes `key` within `tx`, returning whether it was present.
    pub fn remove(&self, tx: &mut Transaction, key: &[u8]) -> Result<bool, TxError> {
        let bucket = self.bucket_of(key);
        let data = tx.read(bucket)?;
        let mut entries = decode_entries(&data);
        let before = entries.len();
        entries.retain(|(k, _)| k != key);
        if entries.len() == before {
            return Ok(false);
        }
        tx.write(bucket, encode_entries(&entries))?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_core::EngineConfig;
    use farm_kernel::ClusterConfig;

    fn setup() -> (Arc<Engine>, HashTable) {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
        let table = HashTable::create(&engine, NodeId(0), 16).unwrap();
        (engine, table)
    }

    #[test]
    fn put_get_remove() {
        let (engine, table) = setup();
        let node = engine.node(NodeId(0));
        let mut tx = node.begin();
        assert_eq!(table.get(&mut tx, b"missing").unwrap(), None);
        table.put(&mut tx, b"k1", b"v1").unwrap();
        table.put(&mut tx, b"k2", b"v2").unwrap();
        tx.commit().unwrap();

        let mut tx = node.begin();
        assert_eq!(table.get(&mut tx, b"k1").unwrap(), Some(b"v1".to_vec()));
        table.put(&mut tx, b"k1", b"v1b").unwrap();
        assert!(table.remove(&mut tx, b"k2").unwrap());
        assert!(!table.remove(&mut tx, b"nope").unwrap());
        tx.commit().unwrap();

        let mut tx = engine.node(NodeId(1)).begin();
        assert_eq!(table.get(&mut tx, b"k1").unwrap(), Some(b"v1b".to_vec()));
        assert_eq!(table.get(&mut tx, b"k2").unwrap(), None);
        tx.commit().unwrap();
        engine.shutdown();
    }

    #[test]
    fn conflicting_puts_to_same_bucket_serialize() {
        let (engine, table) = setup();
        let node = engine.node(NodeId(0));
        // Same key from two transactions: one must abort or they serialize.
        let mut t1 = node.begin();
        let mut t2 = node.begin();
        table.put(&mut t1, b"k", b"a").unwrap();
        table.put(&mut t2, b"k", b"b").unwrap();
        let r1 = t1.commit();
        let r2 = t2.commit();
        assert!(r1.is_ok() ^ r2.is_ok());
        engine.shutdown();
    }

    #[test]
    fn many_keys_spread_over_buckets() {
        let (engine, table) = setup();
        let node = engine.node(NodeId(0));
        for i in 0..100u32 {
            let mut tx = node.begin();
            table
                .put(&mut tx, &i.to_le_bytes(), &i.to_le_bytes())
                .unwrap();
            tx.commit().unwrap();
        }
        let mut tx = node.begin();
        for i in 0..100u32 {
            assert_eq!(
                table.get(&mut tx, &i.to_le_bytes()).unwrap(),
                Some(i.to_le_bytes().to_vec())
            );
        }
        tx.commit().unwrap();
        engine.shutdown();
    }
}
