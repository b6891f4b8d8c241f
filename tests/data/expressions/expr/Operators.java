package expr;

import java.io.IOException;

/** A call in every operator form, at statement level and in a try. */
public class Operators {

    int total = Source.read() + 1;

    void binary(int a, int b) throws Exception {
        int x = Source.read() + Source.read() * 2 - a / Source.read() % b;
        boolean p = Source.ready() || a < Source.read() && Source.ready();
        int bits = Source.read() | a ^ Source.read() & b << Source.read() >> 1 >>> b;
        boolean eq = Source.read() == a != Source.ready() & Source.read() >= b;
        boolean le = a <= Source.read() || Source.read() > b;
        String s = "n=" + Source.read() + ", m=" + a + Source.read();
        int plain = a + b * 2 - (a % 3);
    }

    void unary(int a, int[] xs) throws Exception {
        int x = -Source.read() + +Source.read() + ~Source.read();
        boolean no = !Source.ready();
        ++Source.table()[Source.read()];
        --xs[Source.read()];
        Source.table()[0]++;
        xs[Source.read()]--;
        a++;
        --a;
    }

    void assignment(int a, int[] xs) throws Exception {
        a = Source.read();
        a += Source.read();
        a -= Source.read() * a;
        xs[Source.read()] = Source.read();
        xs[a] <<= Source.read();
        a >>>= Source.read();
        a = xs[0] = Source.read();
        a = a + 1;
    }

    Object conditional(boolean flag) throws Exception {
        int x = Source.ready() ? Source.read() : flag ? 1 : Source.read();
        Object o = flag ? Source.open("a") : null;
        return Source.ready() ? o : Source.supply(o);
    }

    void arrays(int n) throws Exception {
        int[] a = new int[Source.read()];
        int[][] b = new int[n][Source.read()];
        int[] c = new int[] {Source.read(), 1, Source.read()};
        int[] d = {Source.read(), n};
        int[][] e = {{1}, {Source.read()}};
        int f = Source.table()[Source.read()] + a[Source.read()];
        int g = c[n] + d[0];
    }

    void types(Object o) throws Exception {
        boolean s = Source.supply(o) instanceof String;
        boolean t = Source.open("t") instanceof Source src && Source.ready();
        String u = (String) Source.supply(o);
        int v = (int) -Source.read();
        Source w = (Source) o;
        boolean z = o instanceof Integer;
    }

    void lambdas() throws Exception {
        Runnable a = () -> Source.table();
        Runnable b = () -> { Source.read(); };
        java.util.function.Function<Object, Object> c = x -> Source.supply(x);
        java.util.function.Function<Object, Object> d = x -> x;
        Runnable e = Source.task(() -> Source.table());
        Runnable f = Source.task(Source::table);
        Object g = Source.supply(Source.open("g")::size);
        Object h = Source.supply((Runnable) () -> Source.table());
    }

    void statements(int n) throws Exception {
        if (Source.ready()) {
            Source.read();
        } else if (n > Source.read()) {
            n = 0;
        }
        while (Source.read() > n) {
            n++;
        }
        do {
            n--;
        } while (Source.ready());
        for (int i = Source.read(); i < Source.read(); i += Source.read()) {
            n += i;
        }
        for (int i = 0, j = Source.read(); i < j; i++, j = j - Source.read()) {
            n++;
        }
        for (int k : Source.table()) {
            n += k;
        }
        switch (Source.read()) {
            case 1:
                Source.ready();
                break;
            default:
                n = Source.read();
        }
        synchronized (Source.open("lock")) {
            n = 1;
        }
        assert Source.ready() : Source.read();
        return;
    }

    void inTry(int n, int[] xs) {
        try {
            n = Source.read() + n * Source.read();
            xs[Source.read()] += -Source.read();
            boolean b = Source.ready() ? n > 0 : Source.supply(xs) instanceof int[];
            Object o = (Object) Source.open("x");
            Runnable r = () -> Source.table();
            int[] ys = new int[] {n, Source.read()};
            n = n + 1;
        } catch (IOException e) {
            n = e.hashCode() + Source.table()[0];
        } catch (Exception e) {
            xs[0]++;
        }
    }
}
