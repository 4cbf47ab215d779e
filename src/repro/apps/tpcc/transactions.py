"""The five TPC-C transactions, written against a mode-agnostic client.

Every query's result feeds directly into the next statement (the standard's
data dependencies), so under Sloth each registered query is forced right
away: zero batching opportunity, pure lazy-evaluation overhead — this is
what Fig. 13 measures.
"""

from repro.apps.tpcc import data as D
from repro.core.thunk import force
from repro.net.clock import PHASE_APP

TRANSACTION_TYPES = ("new_order", "payment", "order_status", "stock_level",
                     "delivery")


class OriginalClient:
    """Direct driver access, one round trip per statement."""

    def __init__(self, driver, clock, cost_model):
        self.driver = driver
        self.clock = clock
        self.cost_model = cost_model

    def read(self, sql, params=()):
        return self.driver.execute(sql, params)

    def write(self, sql, params=()):
        return self.driver.execute(sql, params)

    def ops(self, count):
        self.clock.charge(PHASE_APP, self.cost_model.app_op_ms * count)


class SlothClient:
    """Sloth-compiled access: register + force immediately."""

    def __init__(self, runtime):
        self.runtime = runtime

    def read(self, sql, params=()):
        return force(self.runtime.query(sql, params))

    def write(self, sql, params=()):
        return self.runtime.execute_write(sql, params)

    def ops(self, count):
        self.runtime.run_ops(count)


class TpccRunner:
    """Executes deterministic TPC-C transactions through a client."""

    def __init__(self, client, warehouses=D.WAREHOUSES):
        self.client = client
        self.warehouses = warehouses
        self._next_order_line = 10_000_000
        self._next_history = 5_000_000
        self.committed = 0

    # -- dispatch ---------------------------------------------------------------

    def run(self, kind, index):
        handler = getattr(self, f"tx_{kind}")
        handler(index)
        self.committed += 1

    def tx_new_order(self, index):
        client = self.client
        w_id = (index % self.warehouses) + 1
        district_id = ((w_id - 1) * D.DISTRICTS_PER_WAREHOUSE
                       + (index % D.DISTRICTS_PER_WAREHOUSE) + 1)
        customer_id = self._customer_id(district_id, index)
        client.write("BEGIN")
        warehouse = client.read(
            "SELECT w_tax FROM warehouse WHERE w_id = ?", (w_id,))
        district = client.read(
            "SELECT d_tax, d_next_o_id FROM district WHERE d_id = ?",
            (district_id,))
        client.read(
            "SELECT c_last, c_credit FROM customer WHERE c_id = ?",
            (customer_id,))
        next_o_id = district.rows[0][1]
        client.write(
            "UPDATE district SET d_next_o_id = ? WHERE d_id = ?",
            (next_o_id + 1, district_id))
        order_id = district_id * 100000 + next_o_id
        client.write(
            "INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, "
            "o_carrier_id, o_ol_cnt, o_entry_d) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (order_id, district_id, w_id, customer_id, None, 5,
             "2014-04-01"))
        client.write(
            "INSERT INTO new_order (no_o_id, no_d_id, no_w_id) "
            "VALUES (?, ?, ?)", (order_id, district_id, w_id))
        total = 0.0
        for line in range(5):
            item_id = ((index * 7 + line * 3) % D.ITEMS) + 1
            item = client.read(
                "SELECT i_price FROM item WHERE i_id = ?", (item_id,))
            price = item.rows[0][0]
            stock = client.read(
                "SELECT s_id, s_quantity FROM stock "
                "WHERE s_w_id = ? AND s_i_id = ?", (w_id, item_id))
            s_id, quantity = stock.rows[0]
            new_quantity = quantity - 5 if quantity > 14 else quantity + 86
            client.write(
                "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + 5, "
                "s_order_cnt = s_order_cnt + 1 WHERE s_id = ?",
                (new_quantity, s_id))
            amount = price * 5
            total += amount
            self._next_order_line += 1
            client.write(
                "INSERT INTO order_line (ol_id, ol_o_id, ol_d_id, ol_w_id,"
                " ol_i_id, ol_quantity, ol_amount, ol_delivery_d) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (self._next_order_line, order_id, district_id, w_id,
                 item_id, 5, amount, None))
        # Total with taxes printed to the console immediately.
        _ = total * (1 + warehouse.rows[0][0]) * (1 + district.rows[0][0])
        client.ops(60)
        client.write("COMMIT")

    def tx_payment(self, index):
        client = self.client
        w_id = (index % self.warehouses) + 1
        district_id = ((w_id - 1) * D.DISTRICTS_PER_WAREHOUSE
                       + (index % D.DISTRICTS_PER_WAREHOUSE) + 1)
        amount = 10.0 + (index % 40)
        client.write("BEGIN")
        client.read("SELECT w_name, w_ytd FROM warehouse WHERE w_id = ?",
                    (w_id,))
        client.write("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
                     (amount, w_id))
        client.read("SELECT d_name, d_ytd FROM district WHERE d_id = ?",
                    (district_id,))
        client.write("UPDATE district SET d_ytd = d_ytd + ? WHERE d_id = ?",
                     (amount, district_id))
        last_name = D.customer_last_name(index % 30)
        customers = client.read(
            "SELECT c_id, c_balance FROM customer "
            "WHERE c_last = ? AND c_d_id = ? ORDER BY c_id",
            (last_name, district_id))
        if customers.rows:
            customer_id = customers.rows[len(customers.rows) // 2][0]
            client.write(
                "UPDATE customer SET c_balance = c_balance - ?, "
                "c_ytd_payment = c_ytd_payment + ?, "
                "c_payment_cnt = c_payment_cnt + 1 WHERE c_id = ?",
                (amount, amount, customer_id))
            self._next_history += 1
            client.write(
                "INSERT INTO history (h_id, h_c_id, h_d_id, h_w_id, "
                "h_amount, h_date) VALUES (?, ?, ?, ?, ?, ?)",
                (self._next_history, customer_id, district_id, w_id,
                 amount, "2014-04-01"))
        client.ops(45)
        client.write("COMMIT")

    def tx_order_status(self, index):
        client = self.client
        w_id = (index % self.warehouses) + 1
        district_id = ((w_id - 1) * D.DISTRICTS_PER_WAREHOUSE
                       + (index % D.DISTRICTS_PER_WAREHOUSE) + 1)
        last_name = D.customer_last_name(index % 30)
        customers = client.read(
            "SELECT c_id, c_balance FROM customer "
            "WHERE c_last = ? AND c_d_id = ? ORDER BY c_id",
            (last_name, district_id))
        if not customers.rows:
            return
        customer_id = customers.rows[len(customers.rows) // 2][0]
        orders = client.read(
            "SELECT o_id, o_carrier_id FROM orders "
            "WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", (customer_id,))
        if orders.rows:
            client.read(
                "SELECT ol_i_id, ol_quantity, ol_amount, ol_delivery_d "
                "FROM order_line WHERE ol_o_id = ?", (orders.rows[0][0],))
        client.ops(30)

    def tx_stock_level(self, index):
        client = self.client
        w_id = (index % self.warehouses) + 1
        district_id = ((w_id - 1) * D.DISTRICTS_PER_WAREHOUSE
                       + (index % D.DISTRICTS_PER_WAREHOUSE) + 1)
        district = client.read(
            "SELECT d_next_o_id FROM district WHERE d_id = ?",
            (district_id,))
        next_o_id = district.rows[0][0]
        client.read(
            "SELECT COUNT(DISTINCT s_i_id) AS low_stock FROM order_line "
            "JOIN stock ON s_i_id = ol_i_id "
            "WHERE ol_d_id = ? AND ol_o_id < ? AND s_w_id = ? "
            "AND s_quantity < ?",
            (district_id, next_o_id, w_id, 20 + index % 10))
        client.ops(25)

    def tx_delivery(self, index):
        client = self.client
        w_id = (index % self.warehouses) + 1
        client.write("BEGIN")
        for d in range(1, D.DISTRICTS_PER_WAREHOUSE + 1):
            district_id = (w_id - 1) * D.DISTRICTS_PER_WAREHOUSE + d
            oldest = client.read(
                "SELECT no_o_id FROM new_order "
                "WHERE no_d_id = ? ORDER BY no_o_id LIMIT 1",
                (district_id,))
            if not oldest.rows:
                continue
            order_id = oldest.rows[0][0]
            client.write("DELETE FROM new_order WHERE no_o_id = ?",
                         (order_id,))
            client.write(
                "UPDATE orders SET o_carrier_id = ? WHERE o_id = ?",
                (index % 10, order_id))
            amounts = client.read(
                "SELECT SUM(ol_amount) AS total FROM order_line "
                "WHERE ol_o_id = ?", (order_id,))
            order = client.read(
                "SELECT o_c_id FROM orders WHERE o_id = ?", (order_id,))
            total = amounts.rows[0][0] or 0.0
            client.write(
                "UPDATE customer SET c_balance = c_balance + ?, "
                "c_delivery_cnt = c_delivery_cnt + 1 WHERE c_id = ?",
                (total, order.rows[0][0]))
        client.ops(50)
        client.write("COMMIT")

    # -- helpers ---------------------------------------------------------------

    def _customer_id(self, district_id, index):
        base = (district_id - 1) * D.CUSTOMERS_PER_DISTRICT
        return base + (index % D.CUSTOMERS_PER_DISTRICT) + 1
