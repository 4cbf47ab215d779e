"""TPC-C schema (the nine standard tables, trimmed to exercised columns)."""

DDL = [
    """CREATE TABLE warehouse (
        w_id INT PRIMARY KEY, w_name TEXT, w_tax FLOAT, w_ytd FLOAT)""",
    """CREATE TABLE district (
        d_id INT PRIMARY KEY, d_w_id INT NOT NULL, d_name TEXT,
        d_tax FLOAT, d_ytd FLOAT, d_next_o_id INT)""",
    """CREATE TABLE customer (
        c_id INT PRIMARY KEY, c_d_id INT NOT NULL, c_w_id INT NOT NULL,
        c_last TEXT, c_credit TEXT, c_balance FLOAT, c_ytd_payment FLOAT,
        c_payment_cnt INT, c_delivery_cnt INT)""",
    """CREATE TABLE orders (
        o_id INT PRIMARY KEY, o_d_id INT NOT NULL, o_w_id INT NOT NULL,
        o_c_id INT, o_carrier_id INT, o_ol_cnt INT, o_entry_d TEXT)""",
    """CREATE TABLE new_order (
        no_o_id INT PRIMARY KEY, no_d_id INT NOT NULL,
        no_w_id INT NOT NULL)""",
    """CREATE TABLE order_line (
        ol_id INT PRIMARY KEY, ol_o_id INT NOT NULL, ol_d_id INT,
        ol_w_id INT, ol_i_id INT, ol_quantity INT, ol_amount FLOAT,
        ol_delivery_d TEXT)""",
    """CREATE TABLE item (
        i_id INT PRIMARY KEY, i_name TEXT, i_price FLOAT, i_data TEXT)""",
    """CREATE TABLE stock (
        s_id INT PRIMARY KEY, s_i_id INT NOT NULL, s_w_id INT NOT NULL,
        s_quantity INT, s_ytd INT, s_order_cnt INT)""",
    """CREATE TABLE history (
        h_id INT PRIMARY KEY, h_c_id INT, h_d_id INT, h_w_id INT,
        h_amount FLOAT, h_date TEXT)""",
    "CREATE INDEX idx_district_w ON district (d_w_id)",
    "CREATE INDEX idx_customer_wd ON customer (c_w_id, c_d_id)",
    "CREATE INDEX idx_customer_last ON customer (c_last)",
    "CREATE INDEX idx_orders_wd ON orders (o_w_id, o_d_id)",
    "CREATE INDEX idx_orders_cust ON orders (o_c_id)",
    "CREATE INDEX idx_new_order_wd ON new_order (no_w_id, no_d_id)",
    # Ordered: stock-level checks range over recent order ids
    # (ol_o_id < next_o_id AND ol_o_id >= next_o_id - 20) and order status
    # pages sort by order id — ordered indexes serve both the range
    # predicate and the ORDER BY without scanning or sorting.
    "CREATE INDEX idx_order_line_o ON order_line (ol_o_id) USING ORDERED",
    "CREATE INDEX idx_orders_id ON orders (o_id) USING ORDERED",
    "CREATE INDEX idx_stock_wi ON stock (s_w_id, s_i_id)",
]


def create_schema(db):
    for ddl in DDL:
        db.execute(ddl)


def shard_topology(shards, replicas=0, staleness_bound=0):
    """The classic TPC-C layout: everything partitions by warehouse (the
    spec's own scaling unit — §1.4 home-warehouse locality makes ~90% of
    transactions single-shard); the item catalog is broadcast."""
    # Cold path (once per cluster set-up): unsharded runs never load shard.
    from repro.sqldb.shard import PartitionSpec, ShardTopology

    return ShardTopology(shards, {
        "warehouse": PartitionSpec("w_id"),
        "district": PartitionSpec("d_w_id"),
        "customer": PartitionSpec("c_w_id"),
        "orders": PartitionSpec("o_w_id"),
        "new_order": PartitionSpec("no_w_id"),
        "order_line": PartitionSpec("ol_w_id"),
        "stock": PartitionSpec("s_w_id"),
        "history": PartitionSpec("h_w_id"),
    }, replicas=replicas, staleness_bound=staleness_bound)
