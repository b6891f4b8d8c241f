package expr;

import java.io.IOException;

/** Methods that the other classes call; each throws something. */
public class Source {

    int count;
    Source next;

    /** @throws IOException when the source is gone */
    static int read() throws IOException {
        return 0;
    }

    static boolean ready() throws AppException {
        return true;
    }

    static Source open(String name) throws IOException {
        return new Source();
    }

    static int[] table() {
        throw new IllegalStateException("no table");
    }

    Source self() throws AppException {
        return this;
    }

    int size() throws IOException {
        return count;
    }

    String describe(Object value) {
        return null;
    }

    static Runnable task(Runnable body) {
        return body;
    }

    static Object supply(Object value) {
        return value;
    }

    void twice() {
    }

    void twice() {
    }
}
