package expr;

import java.io.IOException;

/** Throws that wrap the caught exception in different ways, and throws of
 * expressions that are neither a new instance nor a variable. */
public class Throws {

    void plus() throws AppException {
        try {
            Source.read();
        } catch (IOException e) {
            throw new AppException("failed: " + e);
        }
    }

    void conditional(boolean flag) throws AppException {
        try {
            Source.read();
        } catch (IOException e) {
            throw new AppException(flag ? e : null);
        }
    }

    void cast() throws AppException {
        try {
            Source.read();
        } catch (IOException e) {
            throw new AppException((Throwable) e);
        }
    }

    void lambda() {
        try {
            Source.read();
        } catch (IOException e) {
            throw new IllegalStateException(String.valueOf(Source.supply(() -> e)));
        }
    }

    void methodReference() {
        try {
            Source.read();
        } catch (IOException e) {
            throw new IllegalStateException(String.valueOf(Source.supply(e::getMessage)));
        }
    }

    void fieldOfCaught() throws AppException {
        try {
            Source.read();
        } catch (IOException e) {
            throw new AppException(e.getMessage());
        }
    }

    void literalOnly() throws AppException {
        try {
            Source.read();
        } catch (IOException e) {
            throw new AppException("failed" + 1);
        }
    }

    void anonymous() {
        try {
            Source.read();
        } catch (IOException e) {
            throw new IllegalStateException(String.valueOf(new Object() {
                public String toString() {
                    // TODO: say more than this
                    return e.getMessage();
                }
            }));
        }
    }

    void blockLambda() {
        try {
            Source.read();
        } catch (IOException e) {
            throw new IllegalStateException(String.valueOf(Source.task(() -> {
                /* FIXME: lost */
                Source.supply(e);
            })));
        }
    }

    void rethrow(boolean flag, RuntimeException other) throws Exception {
        try {
            Source.read();
        } catch (IOException e) {
            throw (Exception) e;
        } catch (IllegalStateException e) {
            throw (e);
        } catch (IllegalArgumentException e) {
            throw flag ? e : other;
        } catch (RuntimeException e) {
            throw make(e);
        }
    }

    void opaque(RuntimeException[] all, boolean flag) throws Exception {
        throw all[Source.read()];
    }

    void opaqueAssign(RuntimeException held) {
        throw held = new IllegalStateException(Source.supply(held).toString());
    }

    void literal() {
        throw null;
    }

    void casted() {
        throw (RuntimeException) new IllegalStateException("cast");
    }

    void nested() throws AppException {
        try {
            try {
                Source.read();
            } catch (IOException e) {
                throw new AppException(e.getMessage() + Source.read());
            }
        } catch (IOException outer) {
            throw new IllegalStateException(Source.supply(outer) == null ? "x" : "y");
        }
    }

    RuntimeException make(Exception cause) {
        return new IllegalStateException(cause.getMessage());
    }
}
