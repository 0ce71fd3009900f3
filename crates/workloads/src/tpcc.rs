//! A scaled-down but structurally faithful TPC-C implementation
//! (Section 5.1: hash tables for point-access indexes, B-trees where range
//! queries are required, tables partitioned by warehouse, the full
//! five-transaction mix, throughput reported as committed neworders/s).

use std::sync::Arc;

use farm_core::{Engine, NodeId, TxError, TxOptions};
use farm_index::{BTree, HashTable};
use rand::Rng;

/// TPC-C sizing parameters (scaled down from the spec so that an in-process
/// cluster loads in milliseconds; the access structure is unchanged).
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Warehouses per machine (the paper loads 240 per server).
    pub warehouses_per_node: u32,
    /// Districts per warehouse (10 in the spec).
    pub districts_per_warehouse: u32,
    /// Customers per district (3000 in the spec).
    pub customers_per_district: u32,
    /// Catalog items (100 000 in the spec).
    pub items: u32,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses_per_node: 2,
            districts_per_warehouse: 4,
            customers_per_district: 16,
            items: 256,
        }
    }
}

/// The TPC-C transaction types and their standard mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccTxKind {
    /// New-order (45 % of the mix; the measured transaction).
    NewOrder,
    /// Payment (43 %).
    Payment,
    /// Order-status (4 %, read-only).
    OrderStatus,
    /// Delivery (4 %).
    Delivery,
    /// Stock-level (4 %, read-only).
    StockLevel,
}

impl TpccTxKind {
    /// Draws a transaction type according to the standard mix.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> TpccTxKind {
        match rng.gen_range(0..100u32) {
            0..=44 => TpccTxKind::NewOrder,
            45..=87 => TpccTxKind::Payment,
            88..=91 => TpccTxKind::OrderStatus,
            92..=95 => TpccTxKind::Delivery,
            _ => TpccTxKind::StockLevel,
        }
    }
}

/// Result of executing one TPC-C transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccOutcome {
    /// The transaction committed.
    Committed(TpccTxKind),
    /// The transaction aborted (conflict); the caller may retry.
    Aborted(TpccTxKind),
}

// Composite-key encodings ---------------------------------------------------

fn wh_key(w: u32) -> Vec<u8> {
    w.to_be_bytes().to_vec()
}
fn district_key(w: u32, d: u32) -> Vec<u8> {
    [w.to_be_bytes(), d.to_be_bytes()].concat()
}
fn customer_key(w: u32, d: u32, c: u32) -> Vec<u8> {
    [w.to_be_bytes(), d.to_be_bytes(), c.to_be_bytes()].concat()
}
fn item_key(i: u32) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}
fn stock_key(w: u32, i: u32) -> Vec<u8> {
    [w.to_be_bytes(), i.to_be_bytes()].concat()
}
fn order_key(w: u32, d: u32, o: u32) -> u64 {
    ((w as u64) << 40) | ((d as u64) << 32) | o as u64
}
fn orderline_key(w: u32, d: u32, o: u32, ol: u32) -> u64 {
    ((w as u64) << 44) | ((d as u64) << 36) | ((o as u64) << 4) | ol as u64
}

fn enc_u64s(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}
fn dec_u64(data: &[u8], index: usize) -> u64 {
    let start = index * 8;
    u64::from_le_bytes(data[start..start + 8].try_into().unwrap())
}

/// The loaded TPC-C database: 8 indexes over the cluster (the spec's 16
/// indexes collapse here because we keep only the primary index of each
/// table plus the order-line and order B-trees used by range queries).
pub struct TpccDatabase {
    engine: Arc<Engine>,
    config: TpccConfig,
    warehouses: u32,
    warehouse: HashTable,
    district: HashTable,
    customer: HashTable,
    item: HashTable,
    stock: HashTable,
    orders: BTree,
    new_orders: BTree,
    order_lines: BTree,
}

impl TpccDatabase {
    /// Loads the database, scaling the warehouse count with the cluster size
    /// (as the paper does: 240 warehouses per server).
    pub fn load(engine: &Arc<Engine>, config: TpccConfig) -> Result<TpccDatabase, TxError> {
        let nodes = engine.nodes().len() as u32;
        let warehouses = config.warehouses_per_node * nodes;
        let buckets = (warehouses * config.districts_per_warehouse * 4).max(64) as usize;
        let db = TpccDatabase {
            engine: Arc::clone(engine),
            config,
            warehouses,
            warehouse: HashTable::create(engine, NodeId(0), warehouses.max(8) as usize)?,
            district: HashTable::create(engine, NodeId(0), buckets / 2)?,
            customer: HashTable::create(engine, NodeId(0), buckets)?,
            item: HashTable::create(engine, NodeId(0), (config.items / 2).max(16) as usize)?,
            stock: HashTable::create(engine, NodeId(0), buckets)?,
            orders: BTree::create(engine, NodeId(0)),
            new_orders: BTree::create(engine, NodeId(0)),
            order_lines: BTree::create(engine, NodeId(0)),
        };
        // Each load transaction runs under `run_transaction`, so a
        // retryable abort is retried instead of failing the load.
        let opts = TxOptions::default();
        // Item catalog.
        engine.node(NodeId(0)).run_transaction(opts, |tx| {
            for i in 0..config.items {
                // (price, data)
                db.item.put(
                    tx,
                    &item_key(i),
                    &enc_u64s(&[(i as u64 % 100) + 1, i as u64]),
                )?;
            }
            Ok(())
        })?;
        // Per-warehouse data, loaded from the node that will coordinate it.
        for w in 0..warehouses {
            let node = engine.node(NodeId(w % nodes));
            node.run_transaction(opts, |tx| {
                // (ytd)
                db.warehouse.put(tx, &wh_key(w), &enc_u64s(&[0]))?;
                for d in 0..config.districts_per_warehouse {
                    // (next_o_id, ytd)
                    db.district
                        .put(tx, &district_key(w, d), &enc_u64s(&[1, 0]))?;
                    for c in 0..config.customers_per_district {
                        // (balance, payments, deliveries)
                        db.customer
                            .put(tx, &customer_key(w, d, c), &enc_u64s(&[1_000, 0, 0]))?;
                    }
                }
                Ok(())
            })?;
            node.run_transaction(opts, |tx| {
                for i in 0..config.items {
                    // (quantity, ytd)
                    db.stock.put(tx, &stock_key(w, i), &enc_u64s(&[100, 0]))?;
                }
                Ok(())
            })?;
        }
        Ok(db)
    }

    /// Total warehouses loaded.
    pub fn warehouses(&self) -> u32 {
        self.warehouses
    }

    /// The sizing configuration.
    pub fn config(&self) -> TpccConfig {
        self.config
    }

    /// Executes one transaction of the given kind from `node`, using the
    /// "home warehouse" convention: the warehouse is chosen from those whose
    /// coordinating node is `node` (partitioning by warehouse, Section 5.1).
    pub fn execute<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        kind: TpccTxKind,
        opts: TxOptions,
        rng: &mut R,
    ) -> Result<TpccOutcome, TxError> {
        let nodes = self.engine.nodes().len() as u32;
        let local_warehouses: Vec<u32> = (0..self.warehouses)
            .filter(|w| w % nodes == node.0)
            .collect();
        let w = local_warehouses[rng.gen_range(0..local_warehouses.len())];
        let d = rng.gen_range(0..self.config.districts_per_warehouse);
        let c = rng.gen_range(0..self.config.customers_per_district);
        let result = match kind {
            TpccTxKind::NewOrder => self.new_order(node, w, d, c, opts, rng),
            TpccTxKind::Payment => self.payment(node, w, d, c, opts, rng),
            TpccTxKind::OrderStatus => self.order_status(node, w, d, c, opts),
            TpccTxKind::Delivery => self.delivery(node, w, opts),
            TpccTxKind::StockLevel => self.stock_level(node, w, d, opts),
        };
        match result {
            Ok(()) => Ok(TpccOutcome::Committed(kind)),
            Err(e) if e.is_retryable() => Ok(TpccOutcome::Aborted(kind)),
            Err(e) => Err(e),
        }
    }

    fn new_order<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        w: u32,
        d: u32,
        c: u32,
        opts: TxOptions,
        rng: &mut R,
    ) -> Result<(), TxError> {
        let mut tx = self.engine.node(node).begin_with(opts);
        let _wh = self.warehouse.get(&mut tx, &wh_key(w))?;
        let district = self
            .district
            .get(&mut tx, &district_key(w, d))?
            .ok_or(TxError::InvalidOperation("missing district"))?;
        let o_id = dec_u64(&district, 0) as u32;
        let ytd = dec_u64(&district, 1);
        self.district.put(
            &mut tx,
            &district_key(w, d),
            &enc_u64s(&[o_id as u64 + 1, ytd]),
        )?;
        let _cust = self.customer.get(&mut tx, &customer_key(w, d, c))?;
        let lines = rng.gen_range(5..=15u32);
        let mut total = 0u64;
        for ol in 0..lines {
            let i = rng.gen_range(0..self.config.items);
            // 1% of items come from a remote warehouse, as in the spec.
            let supply_w = if rng.gen_range(0..100) == 0 {
                rng.gen_range(0..self.warehouses)
            } else {
                w
            };
            let item = self
                .item
                .get(&mut tx, &item_key(i))?
                .ok_or(TxError::InvalidOperation("missing item"))?;
            let price = dec_u64(&item, 0);
            let stock = self
                .stock
                .get(&mut tx, &stock_key(supply_w, i))?
                .ok_or(TxError::InvalidOperation("missing stock"))?;
            let qty = dec_u64(&stock, 0);
            let s_ytd = dec_u64(&stock, 1);
            let order_qty = rng.gen_range(1..=10u64);
            let new_qty = if qty > order_qty + 10 {
                qty - order_qty
            } else {
                qty + 91 - order_qty
            };
            self.stock.put(
                &mut tx,
                &stock_key(supply_w, i),
                &enc_u64s(&[new_qty, s_ytd + order_qty]),
            )?;
            total += price * order_qty;
            self.order_lines.put(
                &mut tx,
                orderline_key(w, d, o_id, ol),
                &enc_u64s(&[i as u64, order_qty, price]),
            )?;
        }
        self.orders.put(
            &mut tx,
            order_key(w, d, o_id),
            &enc_u64s(&[c as u64, lines as u64, total]),
        )?;
        self.new_orders
            .put(&mut tx, order_key(w, d, o_id), &enc_u64s(&[c as u64]))?;
        tx.commit()?;
        Ok(())
    }

    fn payment<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        w: u32,
        d: u32,
        c: u32,
        opts: TxOptions,
        rng: &mut R,
    ) -> Result<(), TxError> {
        let amount = rng.gen_range(1..=5_000u64);
        let mut tx = self.engine.node(node).begin_with(opts);
        let wh = self
            .warehouse
            .get(&mut tx, &wh_key(w))?
            .ok_or(TxError::InvalidOperation("missing warehouse"))?;
        self.warehouse
            .put(&mut tx, &wh_key(w), &enc_u64s(&[dec_u64(&wh, 0) + amount]))?;
        let district = self
            .district
            .get(&mut tx, &district_key(w, d))?
            .ok_or(TxError::InvalidOperation("missing district"))?;
        self.district.put(
            &mut tx,
            &district_key(w, d),
            &enc_u64s(&[dec_u64(&district, 0), dec_u64(&district, 1) + amount]),
        )?;
        let cust = self
            .customer
            .get(&mut tx, &customer_key(w, d, c))?
            .ok_or(TxError::InvalidOperation("missing customer"))?;
        let balance = dec_u64(&cust, 0);
        self.customer.put(
            &mut tx,
            &customer_key(w, d, c),
            &enc_u64s(&[
                balance.saturating_sub(amount),
                dec_u64(&cust, 1) + 1,
                dec_u64(&cust, 2),
            ]),
        )?;
        tx.commit()?;
        Ok(())
    }

    fn order_status(
        &self,
        node: NodeId,
        w: u32,
        d: u32,
        c: u32,
        opts: TxOptions,
    ) -> Result<(), TxError> {
        let mut tx = self.engine.node(node).begin_with(opts);
        let _cust = self.customer.get(&mut tx, &customer_key(w, d, c))?;
        // Most recent order of the district (scan backwards is emulated by a
        // bounded forward scan over this district's key range).
        let orders = self.orders.scan(&mut tx, order_key(w, d, 0), 64)?;
        if let Some((okey, row)) = orders.last() {
            let o_id = (okey & 0xFFFF_FFFF) as u32;
            let lines = dec_u64(row, 1) as usize;
            let _ = self
                .order_lines
                .scan(&mut tx, orderline_key(w, d, o_id, 0), lines)?;
        }
        tx.commit()?;
        Ok(())
    }

    fn delivery(&self, node: NodeId, w: u32, opts: TxOptions) -> Result<(), TxError> {
        let mut tx = self.engine.node(node).begin_with(opts);
        for d in 0..self.config.districts_per_warehouse {
            let pending = self.new_orders.scan(&mut tx, order_key(w, d, 0), 1)?;
            let Some((okey, row)) = pending.first() else {
                continue;
            };
            if *okey >= order_key(w, d + 1, 0) {
                continue; // the scan ran into the next district
            }
            let o_id = (okey & 0xFFFF_FFFF) as u32;
            let c = dec_u64(row, 0) as u32;
            self.new_orders.remove(&mut tx, *okey)?;
            let cust = self
                .customer
                .get(&mut tx, &customer_key(w, d, c))?
                .ok_or(TxError::InvalidOperation("missing customer"))?;
            let order = self
                .orders
                .get(&mut tx, order_key(w, d, o_id))?
                .ok_or(TxError::InvalidOperation("missing order"))?;
            let total = dec_u64(&order, 2);
            self.customer.put(
                &mut tx,
                &customer_key(w, d, c),
                &enc_u64s(&[
                    dec_u64(&cust, 0) + total,
                    dec_u64(&cust, 1),
                    dec_u64(&cust, 2) + 1,
                ]),
            )?;
        }
        tx.commit()?;
        Ok(())
    }

    fn stock_level(&self, node: NodeId, w: u32, d: u32, opts: TxOptions) -> Result<(), TxError> {
        let mut tx = self.engine.node(node).begin_with(opts);
        let district = self
            .district
            .get(&mut tx, &district_key(w, d))?
            .ok_or(TxError::InvalidOperation("missing district"))?;
        let next_o_id = dec_u64(&district, 0) as u32;
        let first = next_o_id.saturating_sub(20);
        let lines = self
            .order_lines
            .scan(&mut tx, orderline_key(w, d, first, 0), 20 * 15)?;
        let mut low = 0;
        for (_, row) in lines.iter().take(100) {
            let item = dec_u64(row, 0) as u32;
            if let Some(stock) = self.stock.get(&mut tx, &stock_key(w, item))? {
                if dec_u64(&stock, 0) < 15 {
                    low += 1;
                }
            }
        }
        let _ = low;
        tx.commit()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_core::EngineConfig;
    use farm_kernel::ClusterConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TpccConfig {
        TpccConfig {
            warehouses_per_node: 1,
            districts_per_warehouse: 2,
            customers_per_district: 4,
            items: 32,
        }
    }

    #[test]
    fn mix_matches_spec_fractions_roughly() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut neworders = 0;
        for _ in 0..10_000 {
            if TpccTxKind::sample(&mut rng) == TpccTxKind::NewOrder {
                neworders += 1;
            }
        }
        let frac = neworders as f64 / 10_000.0;
        assert!((0.40..0.50).contains(&frac), "neworder fraction {frac}");
    }

    #[test]
    fn loads_and_runs_the_full_mix() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
        let db = TpccDatabase::load(&engine, tiny()).unwrap();
        assert_eq!(db.warehouses(), 3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut committed = 0;
        let mut neworders = 0;
        for i in 0..120 {
            let node = NodeId(i % 3);
            let kind = TpccTxKind::sample(&mut rng);
            match db
                .execute(node, kind, TxOptions::serializable(), &mut rng)
                .unwrap()
            {
                TpccOutcome::Committed(k) => {
                    committed += 1;
                    if k == TpccTxKind::NewOrder {
                        neworders += 1;
                    }
                }
                TpccOutcome::Aborted(_) => {}
            }
        }
        assert!(committed > 80, "only {committed}/120 committed");
        assert!(neworders > 10, "only {neworders} neworders committed");
        engine.shutdown();
    }

    #[test]
    fn two_clients_share_one_database() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
        let db = Arc::new(TpccDatabase::load(&engine, tiny()).unwrap());
        // (committed new-orders, aborted) per client; errors count as aborts.
        let clients: Vec<_> = (0..2u32)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5EED + t as u64);
                    let (mut neworders, mut aborted) = (0u32, 0u32);
                    for _ in 0..100 {
                        let kind = TpccTxKind::sample(&mut rng);
                        match db.execute(NodeId(t), kind, TxOptions::serializable(), &mut rng) {
                            Ok(TpccOutcome::Committed(TpccTxKind::NewOrder)) => neworders += 1,
                            Ok(TpccOutcome::Committed(_)) => {}
                            Ok(TpccOutcome::Aborted(_)) | Err(_) => aborted += 1,
                        }
                    }
                    (neworders, aborted)
                })
            })
            .collect();
        let (mut neworders, mut aborted) = (0, 0);
        for client in clients {
            let (n, a) = client.join().unwrap();
            neworders += n;
            aborted += a;
        }
        assert!(neworders > 0, "no new-orders committed");
        let abort_rate = aborted as f64 / 200.0;
        assert!(abort_rate < 0.5, "abort rate {abort_rate}");
        engine.shutdown();
    }

    #[test]
    fn new_order_advances_the_district_sequence() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
        let db = TpccDatabase::load(&engine, tiny()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let _ = db.execute(
                NodeId(0),
                TpccTxKind::NewOrder,
                TxOptions::serializable(),
                &mut rng,
            );
        }
        // The next_o_id of at least one district of warehouse 0 must have
        // advanced beyond its initial value of 1.
        let node = engine.node(NodeId(0));
        let mut tx = node.begin();
        let mut advanced = false;
        for d in 0..tiny().districts_per_warehouse {
            let row = db
                .district
                .get(&mut tx, &district_key(0, d))
                .unwrap()
                .unwrap();
            if dec_u64(&row, 0) > 1 {
                advanced = true;
            }
        }
        tx.commit().unwrap();
        assert!(advanced);
        engine.shutdown();
    }

    #[test]
    fn works_under_multi_version_engine_too() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::multi_version());
        let db = TpccDatabase::load(&engine, tiny()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut committed = 0;
        for _ in 0..40 {
            if matches!(
                db.execute(
                    NodeId(0),
                    TpccTxKind::sample(&mut rng),
                    TxOptions::serializable(),
                    &mut rng
                )
                .unwrap(),
                TpccOutcome::Committed(_)
            ) {
                committed += 1;
            }
        }
        assert!(committed > 20);
        engine.shutdown();
    }
}
