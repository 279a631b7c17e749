"""Reference programs used across the tests, demos, and docs."""

from __future__ import annotations

# Two-member class with an overloaded add; explicit labels put main at 1..16
# and the method bodies at 17..24. With SAMPLE_INPUTS the integer outputs are
# 1, 2, 3, 4, 4, 6, 9, 11.
SAMPLE_SOURCE = """\
class test {
    int a;
    int b;
public:
    void get(int x, int y) {
        #17: a = x;
        #18: b = y;
    }
    void display() {
        #19: cout << a;
        #20: cout << b;
    }
    test add(test tp1, test tp2) {
        #21: a = tp1.a + tp2.a;
        #22: b = tp1.b + tp2.b;
    }
    test add(test tp3, int s) {
        #23: a = tp3.a + s;
        #24: b = tp3.b + s;
    }
};

void main() {
    test T1, T2, T3, T4;
    int p, q;
    #1: cout << "Enter the value of p";
    #2: cin >> p;
    #3: cout << "Enter the value of q";
    #4: cin >> q;
    #5: T1.get(p, q);
    #6: T1.display();
    #7: cout << "Enter the value of p";
    #8: cin >> p;
    #9: cout << "Enter the value of q";
    #10: cin >> q;
    #11: T2.get(p, q);
    #12: T2.display();
    #13: T3.add(T1, T2);
    #14: T3.display();
    #15: T4.add(T3, 5);
    #16: T4.display();
}
"""

SAMPLE_INPUTS = (1, 2, 3, 4)

# Loop fixture: node 6 depends on the loop only through data flow; node 8
# depends on nothing but node 7, which verifies the control-slice reset on
# loop exit.
LOOP_SOURCE = """\
void main() {
    int n, s, t;
    #1: cin >> n;
    #2: s = 0;
    #3: while (n > 0) {
        #4: s = s + n;
        #5: n = n - 1;
    }
    #6: cout << s;
    #7: t = 9;
    #8: cout << t;
}
"""

# Ten-statement loop whose slice sets saturate after a few iterations: the
# slicer's peak state is then independent of the iteration count while the
# dependence-graph oracle keeps growing linearly.
STREAM_SOURCE = """\
void main() {
    int n, a, b;
    #1: cin >> n;
    #2: a = 0;
    #3: b = 1;
    #4: while (n > 0) {
        #5: a = a + b;
        #6: b = a + 1;
        #7: n = n - 1;
    }
    #8: cout << a;
    #9: cout << b;
    #10: cout << n;
}
"""

# Method call in a loop: every iteration opens a frame with fresh locals and a
# parameter transfer. Slicer state stays flat only if nothing is kept per
# activation; with input n the outputs are n(n+1)/2 and n.
CALLS_SOURCE = """\
class acc {
    int s;
public:
    void f(int x) {
        int t;
        #8: t = x + 1;
        #9: s = s + t;
    }
};

void main() {
    acc o;
    int n, i;
    #1: cin >> n;
    #2: i = 0;
    #3: while (i < n) {
        #4: o.f(i);
        #5: i = i + 1;
    }
    #6: cout << o.s;
    #7: cout << i;
}
"""

# Constant assignment under a loop test: node 3's slice comes entirely from
# control flow, so moving its trace record past #5, the loop's exit successor,
# makes the two engines disagree (the corrupted-trace control in the tests).
CONST_LOOP_SOURCE = """\
void main() {
    int n, t;
    #1: cin >> n;
    #2: while (n > 0) {
        #3: t = 9;
        #4: n = n - 1;
    }
    #5: cout << t;
}
"""

# By-reference round trip: the actual inherits the formal's slice on return.
# Node 4 is the method body, so main holds 1, 2, 3, 5.
BYREF_SOURCE = """\
class box {
    int v;
public:
    void bump(int &r, int d) {
        #4: r = r + d;
    }
};

void main() {
    box B;
    int x, d;
    #1: cin >> x;
    #2: d = 3;
    #3: B.bump(x, d);
    #5: cout << x;
}
"""
