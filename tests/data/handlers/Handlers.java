package handlers;

import java.io.IOException;

/** Catch clauses whose handlers nest tries, lambdas and anonymous classes. */
public class Handlers {

    void work() throws IOException {}

    void recover() {}

    void run(Runnable task) {}

    String describe(Exception e) {
        return null;
    }

    void nestedTry(Logger log) {
        try {
            work();
        } catch (IOException e) {
            try {
                log.warn(e);
                System.exit(1);
            } catch (RuntimeException inner) {
                shout(inner);
                throw new IllegalStateException(e);
            } finally {
                recover();
            }
        }
    }

    void lambdaAndAnonymous() {
        try {
            work();
        } catch (IOException e) {
            run(() -> {
                recover();
                return;
            });
            run(new Runnable() {
                public void run() {
                    // FIXME: this swallows the failure
                    Fatal.stop(1);
                }
            });
        }
    }

    void wrapped(boolean flag) {
        try {
            work();
        } catch (IOException e) {
            if (flag) {
                /* TODO: retry before giving up */
                recover();
            }
            throw new IllegalStateException(describe(e));
        }
    }

    void insideThrow() {
        try {
            work();
        } catch (IOException e) {
            throw new IllegalStateException(new Object() {
                String text() {
                    // TODO: never counted for the outer clause
                    try {
                        recover();
                    } catch (RuntimeException x) {
                        return describe(x);
                    }
                    return null;
                }
            }.text());
        }
    }

    void loop() {
        while (true) {
            try {
                work();
            } catch (IOException e) {
                System.err.println(e);
                continue;
            } catch (RuntimeException e) {
                throw e;
            } catch (Exception e) {
                e.printStackTrace();
            } catch (Throwable t) {
            }
        }
    }

    void lambdaTry() {
        try {
            work();
        } catch (IOException e) {
            run(() -> {
                try {
                    shout(e);
                } catch (RuntimeException again) {
                    Runtime.halt(1);
                }
            });
        }
    }

    void shout(Exception e) {}
}

class Fatal {
    static void stop(int code) {}
}
